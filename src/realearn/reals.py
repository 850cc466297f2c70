"""Exact computable reals as lazily evaluated nested rational intervals.

A real number is represented by a total function from a precision index
``k`` to a rational interval ``[lo, hi]``.  Successive intervals are
nested, and the width at index ``k`` is at most ``2**-k``, so the
sequence pins down a unique real.  All endpoint arithmetic is exact:
the only ground numeric type is the arbitrary-precision rational
(:class:`fractions.Fraction`), and no floating point is used anywhere.

Evaluation is lazy in precision as well as in time.  Reals built by the
registry's constructors and arithmetic nodes are nested by
construction, so they are evaluated only at the indices actually read:
a product read at ``k`` reads its operands at ``k + shift`` and nothing
below it.  A raw generator handed to :meth:`RealRegistry.register` has
no such proof, so it is evaluated on the whole prefix ``0..k`` and each
new interval is checked against its predecessor.

Strict order between two reals is observed through :func:`op_at`, a
decidable precision-indexed predicate: ``op_at(r, s, k)`` holds when
r's interval at ``k`` lies strictly below s's interval at ``k``.  The
predicate is monotone in ``k``, irreflexive, asymmetric, and
transitive with witness ``max(k, l)``; those properties are theorems
of the nesting invariants and are exercised by the test suite.
Monotonicity is what lets :func:`least_witness` find the least
witnessing precision by galloping and bisection instead of a scan.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

Interval = Tuple[Fraction, Fraction]
RationalLike = Union[Fraction, int, str]
Generator = Callable[[int], Interval]


def pow2(k: int) -> Fraction:
    """2**-k as an exact rational, for k >= 0."""
    return Fraction(1, 2 ** k)


class InvalidNesting(ValueError):
    """An interval sequence violated one of the interval clauses.

    Carries the first offending index ``k`` and the name of the
    violated ``clause``.
    """

    def __init__(self, k: int, clause: str):
        self.k = k
        self.clause = clause
        super().__init__(f"invalid interval table at index {k}: {clause}")


def _check_interval(k: int, interval: Interval,
                    outer: Optional[Interval]) -> None:
    """Raise :class:`InvalidNesting` for the first clause that the
    interval at ``k`` violates, given the interval at ``k - 1`` if known."""
    lo, hi = interval
    if lo > hi:
        raise InvalidNesting(k, "lower endpoint above upper endpoint")
    if hi - lo > pow2(k):
        raise InvalidNesting(k, f"width exceeds 2^-{k}")
    if outer is not None:
        if lo < outer[0]:
            raise InvalidNesting(k, "lower endpoint decreases")
        if hi > outer[1]:
            raise InvalidNesting(k, "upper endpoint increases")


class RealNum:
    """One registered real: a memoized generator of nested intervals.

    Instances are created through a :class:`RealRegistry`, which assigns
    the dense index that serves as the real's identity.  Intervals are
    cached per index, so the generator is evaluated at most once per
    index.  A real marked ``nested`` (every constructor and arithmetic
    node) is evaluated at the requested index only; in debug builds the
    new interval is checked for ``lo <= hi``, width at most ``2**-k``
    and nesting with whichever neighbours ``k - 1`` and ``k + 1`` are
    cached.  Any other real is a raw generator: reading index ``k``
    evaluates the missing prefix up to ``k`` in order, and every new
    interval is checked against its predecessor in all builds, raising
    :class:`InvalidNesting` on the first violated clause.
    """

    __slots__ = ("index", "registry", "nested", "_gen", "_cache")

    def __init__(self, index: int, registry: "RealRegistry", gen: Generator):
        self.index = index
        self.registry = registry
        self.nested = False
        self._gen = gen
        self._cache: dict[int, Interval] = {}

    def interval_at(self, k: int) -> Interval:
        """The interval at precision index ``k`` (exact endpoints)."""
        cache = self._cache
        interval = cache.get(k)
        if interval is not None:
            return interval
        if k < 0:
            raise ValueError(f"precision index must be >= 0, got {k}")
        if self.nested:
            interval = self._gen(k)
            if __debug__:
                _check_interval(k, interval, cache.get(k - 1))
                if k + 1 in cache:
                    _check_interval(k + 1, cache[k + 1], interval)
            cache[k] = interval
            return interval
        for j in range(len(cache), k + 1):
            lo, hi = self._gen(j)
            _check_interval(j, (lo, hi), cache.get(j - 1))
            cache[j] = (lo, hi)
        return cache[k]

    def __repr__(self) -> str:
        return f"RealNum({self.index})"


def op_at(r: RealNum, s: RealNum, k: int) -> bool:
    """Decide whether r is strictly below s at precision ``k``.

    True exactly when r's upper endpoint at ``k`` is strictly less than
    s's lower endpoint at ``k``.  A single True answer at any precision
    certifies the strict real-number order r < s.
    """
    return r.interval_at(k)[1] < s.interval_at(k)[0]


def least_witness(holds: Callable[[int], bool], k_max: int) -> Optional[int]:
    """Least k in ``0..k_max`` with ``holds(k)``, or None.

    ``holds`` must be monotone in k (once true, true at every higher
    index), as :func:`op_at` is for nested reals.  The search gallops
    through k = 0, 1, 2, 4, 8, ... capped at ``k_max`` until ``holds``
    is true, then bisects between the last false and the first true
    probe, so it returns what a scan over 0, 1, 2, ... would return
    using O(log k) probes.  A negative ``k_max`` returns None without
    probing.
    """
    if k_max < 0:
        return None
    below, k = -1, 0
    while not holds(k):
        if k >= k_max:
            return None
        below, k = k, min(2 * k or 1, k_max)
    while k - below > 1:
        mid = (below + k) // 2
        if holds(mid):
            k = mid
        else:
            below = mid
    return k


def find_strict_witness(r: RealNum, s: RealNum, k_max: int) -> Optional[int]:
    """Smallest k <= k_max with ``op_at(r, s, k)``, or None.

    This is the bounded search for a strict-order witness; None means
    the search budget was exhausted, not that r < s is false.
    """
    return least_witness(lambda k: op_at(r, s, k), k_max)


def _magnitude_exponent(x: RealNum) -> int:
    """Smallest c >= 0 such that 2**c bounds |x| at index 0."""
    lo, hi = x.interval_at(0)
    m = max(abs(lo), abs(hi))
    if m <= 1:
        return 0
    c = max(0, m.numerator.bit_length() - m.denominator.bit_length() - 1)
    while 2 ** c < m:
        c += 1
    return c


class RealRegistry:
    """Append-only store of reals, indexed densely from 0.

    The index doubles as the real's identity in knowledge states and
    evidence chains.  Entries are never mutated after registration.
    """

    def __init__(self) -> None:
        self._entries: list[RealNum] = []
        self._zero: Optional[RealNum] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> RealNum:
        return self._entries[index]

    def __iter__(self) -> Iterator[RealNum]:
        return iter(self._entries)

    def register(self, gen: Generator) -> RealNum:
        """Register a raw interval generator and return its handle.

        The generator must produce nested intervals of width at most
        ``2**-k``; it is evaluated prefix by prefix and a violation
        raises :class:`InvalidNesting` on first evaluation.
        Constructors below validate more eagerly.
        """
        real = RealNum(len(self._entries), self, gen)
        self._entries.append(real)
        return real

    def _register_nested(self, gen: Generator) -> RealNum:
        """Register a generator that is nested by construction, for
        evaluation at the requested index only."""
        real = self.register(gen)
        real.nested = True
        return real

    def from_rational(self, q: RationalLike) -> RealNum:
        """The real with constant degenerate interval [q, q]."""
        value = Fraction(q)

        def gen(k: int) -> Interval:
            return (value, value)

        return self._register_nested(gen)

    def blurred(self, q: RationalLike) -> RealNum:
        """A real converging to q with interval width exactly 2**-k.

        The interval at k is ``[q - 2**-(k+1), q + 2**-(k+1)]``, so the
        limit is only ever known up to the current precision.
        """
        value = Fraction(q)

        def gen(k: int) -> Interval:
            blur = Fraction(1, 2 ** (k + 1))
            return (value - blur, value + blur)

        return self._register_nested(gen)

    def from_table(self, prefix: Sequence[Tuple[RationalLike, RationalLike]],
                   tail: RationalLike) -> RealNum:
        """A real given by an explicit finite interval prefix.

        Past the prefix the sequence is the degenerate interval
        ``[tail, tail]``.  The whole table is validated eagerly; the
        first violated clause raises :class:`InvalidNesting` with the
        offending index.
        """
        intervals = [(Fraction(lo), Fraction(hi)) for lo, hi in prefix]
        tail_value = Fraction(tail)
        for k, interval in enumerate(intervals):
            _check_interval(k, interval, intervals[k - 1] if k else None)
        if intervals:
            lo, hi = intervals[-1]
            if not (lo <= tail_value <= hi):
                raise InvalidNesting(len(intervals), "tail outside final interval")

        def gen(k: int) -> Interval:
            if k < len(intervals):
                return intervals[k]
            return (tail_value, tail_value)

        return self._register_nested(gen)

    def zero(self) -> RealNum:
        """The constant real 0, registered once per registry on demand."""
        if self._zero is None:
            self._zero = self.from_rational(0)
        return self._zero

    def add(self, a: RealNum, b: RealNum) -> RealNum:
        """Register a + b.

        The sum's interval at k reads both operands at k + 1, so the
        width bound ``2**-(k+1) + 2**-(k+1) = 2**-k`` is preserved.
        """

        def gen(k: int) -> Interval:
            alo, ahi = a.interval_at(k + 1)
            blo, bhi = b.interval_at(k + 1)
            return (alo + blo, ahi + bhi)

        return self._register_nested(gen)

    def sub(self, a: RealNum, b: RealNum) -> RealNum:
        """Register a - b, reading both operands at k + 1."""

        def gen(k: int) -> Interval:
            alo, ahi = a.interval_at(k + 1)
            blo, bhi = b.interval_at(k + 1)
            return (alo - bhi, ahi - blo)

        return self._register_nested(gen)

    def mul(self, a: RealNum, b: RealNum) -> RealNum:
        """Register a * b.

        The product reads its operands at ``k + s`` where the shift
        ``s = c_a + c_b + 2`` is fixed at construction from magnitude
        bounds ``2**c_x`` at index 0.  Endpoints are the min and max of
        the four endpoint products.  Width bound: each factor interval
        at k + s has width at most ``2**-(k+s)`` and magnitude at most
        ``2**c_x``, so the product width is at most
        ``(2**c_a + 2**c_b) * 2**-(k+s) <= 2**-(k+1)``.
        """
        shift = _magnitude_exponent(a) + _magnitude_exponent(b) + 2

        def gen(k: int) -> Interval:
            alo, ahi = a.interval_at(k + shift)
            blo, bhi = b.interval_at(k + shift)
            products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            return (min(products), max(products))

        return self._register_nested(gen)
