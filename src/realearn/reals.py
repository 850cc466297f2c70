"""Exact computable reals as lazily evaluated nested rational intervals.

A real number is represented by a total function from a precision index
``k`` to a rational interval ``[lo, hi]``.  Successive intervals are
nested, and the width at index ``k`` is at most ``2**-k``, so the
sequence pins down a unique real.  All endpoint arithmetic is exact and
no floating point is used anywhere.

Internally every interval is one integer triple ``(lo, hi, d)`` with
``d > 0``, meaning ``[lo/d, hi/d]``: both endpoints share one
denominator, which is a power of two for dyadic inputs and whatever
the rationals need otherwise.  Sums and differences put their operands
over the lcm of the two denominators, and operands over one ``d`` keep
it.  Products multiply numerators and denominators; the endpoints are
the min and max of the four endpoint products, and when neither
operand straddles zero the signs say which two products those are, so
only those two are taken.  Comparisons cross-multiply.  Nothing is
rounded and nothing is normalised, so each triple equals, as a pair of
rationals, the interval that :class:`fractions.Fraction` arithmetic
would give.
The public :meth:`RealNum.interval_at` returns that interval as a
``Fraction`` pair, and a raw generator handed to
:meth:`RealRegistry.register` returns ``Fraction`` pairs, converted
once on evaluation.

A :class:`RealRegistry` holds the input reals only: its constructors
register each real under a dense index.  Sums, differences and
products are the functions :func:`add`, :func:`sub` and :func:`mul`;
they return nodes with no index that know nothing of any registry,
and a node and its cached intervals live only as long as the caller
keeps them.  The learners name reals by their position in whatever
sequence of reals they are given, a registry or a plain list.

Evaluation is lazy in precision as well as in time.  Reals built by the
registry's constructors and arithmetic nodes are nested by
construction, so they are evaluated only at the indices actually read:
a product read at ``k`` reads its operands at ``k + shift`` and nothing
below it.  A raw generator has no such proof, so it is evaluated on
the whole prefix ``0..k`` and each new interval is checked against its
predecessor.

Strict order between two reals is observed through :func:`op_at`, a
decidable precision-indexed predicate: ``op_at(r, s, k)`` holds when
r's interval at ``k`` lies strictly below s's interval at ``k``.  The
predicate is monotone in ``k``, irreflexive, asymmetric, and
transitive with witness ``max(k, l)``; those properties are theorems
of the nesting invariants and are exercised by the test suite.
Monotonicity is what lets :func:`least_witness` find the least
witnessing precision by galloping and bisection instead of a scan, and
lets the gallop start from any precision: a caller that expects the
witness near some k starts there, and the least witness is the same.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Optional, Tuple, Union

Interval = Tuple[Fraction, Fraction]
# (lo, hi, d) with d > 0, meaning the interval [lo/d, hi/d]
Triple = Tuple[int, int, int]
RationalLike = Union[Fraction, int, str]
Generator = Callable[[int], Interval]


class InvalidNesting(ValueError):
    """An interval sequence violated one of the interval clauses.

    Carries the first offending index ``k`` and the name of the
    violated ``clause``.
    """

    def __init__(self, k: int, clause: str):
        self.k = k
        self.clause = clause
        super().__init__(f"invalid interval table at index {k}: {clause}")


def _over_lcm(da: int, db: int) -> Tuple[int, int, int]:
    """``(sa, sb, d)`` with ``d = lcm(da, db) = da * sa = db * sb``."""
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return sa, sb, da * sa


def _triple(lo: RationalLike, hi: RationalLike) -> Triple:
    """The rational pair ``(lo, hi)`` over the lcm of its denominators."""
    lo, hi = Fraction(lo), Fraction(hi)
    s_lo, s_hi, d = _over_lcm(lo.denominator, hi.denominator)
    return (lo.numerator * s_lo, hi.numerator * s_hi, d)


def _check_interval(k: int, interval: Triple,
                    outer: Optional[Triple]) -> None:
    """Raise :class:`InvalidNesting` for the first clause that the
    interval at ``k`` violates, given the interval at ``k - 1`` if known."""
    lo, hi, d = interval
    if lo > hi:
        raise InvalidNesting(k, "lower endpoint above upper endpoint")
    if (hi - lo) << k > d:
        raise InvalidNesting(k, f"width exceeds 2^-{k}")
    if outer is not None:
        outer_lo, outer_hi, outer_d = outer
        if lo * outer_d < outer_lo * d:
            raise InvalidNesting(k, "lower endpoint decreases")
        if hi * outer_d > outer_hi * d:
            raise InvalidNesting(k, "upper endpoint increases")


class RealNum:
    """One real: a memoized generator of nested intervals.

    An input real is created through a :class:`RealRegistry` and
    carries its registry index; an arithmetic node (:func:`add`,
    :func:`sub`, :func:`mul`) has ``index`` None.  No real refers back
    to a registry.  Intervals are cached per index as integer triples
    (see the module docstring), so the generator is evaluated at most
    once per index.  ``nested`` alone picks the path.  A nested real
    (every constructor and arithmetic node) has a generator of
    ``(lo, hi, d)`` triples and is evaluated at the requested index
    only; in debug builds the new interval is checked for ``lo <= hi``,
    width at most ``2**-k`` and nesting with whichever neighbours
    ``k - 1`` and ``k + 1`` are cached.  The clauses are tested inline
    and :func:`_check_interval` is called only to name a failing one.
    Any other real is a raw generator of ``Fraction`` pairs: reading
    index ``k`` evaluates the missing prefix up to ``k`` in order, and
    every new interval is checked against its predecessor in all
    builds, raising :class:`InvalidNesting` on the first violated
    clause.  The magnitude exponent that :func:`mul` reads from index 0
    is cached in ``_magnitude`` once computed, so a node shared by many
    products reads it once.
    """

    __slots__ = ("index", "nested", "_gen", "_cache", "_magnitude")

    def __init__(self, index: Optional[int],
                 gen: Callable[[int], Union[Interval, Triple]]):
        self.index = index
        self.nested = False
        self._gen = gen
        self._cache: dict[int, Triple] = {}
        self._magnitude: Optional[int] = None

    def interval_at(self, k: int) -> Interval:
        """The interval at precision index ``k`` (exact endpoints)."""
        lo, hi, d = self._at(k)
        return (Fraction(lo, d), Fraction(hi, d))

    def _at(self, k: int) -> Triple:
        """The interval at ``k`` as a cached ``(lo, hi, d)`` triple."""
        cache = self._cache
        interval = cache.get(k)
        if interval is not None:
            return interval
        if k < 0:
            raise ValueError(f"precision index must be >= 0, got {k}")
        if self.nested:
            interval = self._gen(k)
            if __debug__:
                # the clauses of _check_interval, which runs only to
                # name the first one that fails
                lo, hi, d = interval
                outer = cache.get(k - 1)
                if (lo > hi or (hi - lo) << k > d or outer is not None and (
                        lo * outer[2] < outer[0] * d
                        or hi * outer[2] > outer[1] * d)):
                    _check_interval(k, interval, outer)
                # a cached k + 1 passed its own clauses: test its nesting
                inner = cache.get(k + 1)
                if inner is not None and (inner[0] * d < lo * inner[2]
                                          or inner[1] * d > hi * inner[2]):
                    _check_interval(k + 1, inner, interval)
            cache[k] = interval
            return interval
        for j in range(len(cache), k + 1):
            interval = _triple(*self._gen(j))
            _check_interval(j, interval, cache.get(j - 1))
            cache[j] = interval
        return cache[k]

    def __repr__(self) -> str:
        return f"RealNum({self.index})"


def op_at(r: RealNum, s: RealNum, k: int) -> bool:
    """Decide whether r is strictly below s at precision ``k``.

    True exactly when r's upper endpoint at ``k`` is strictly less than
    s's lower endpoint at ``k``.  A single True answer at any precision
    certifies the strict real-number order r < s.
    """
    _, r_hi, r_d = r._at(k)
    s_lo, _, s_d = s._at(k)
    return r_hi * s_d < s_lo * r_d


def least_witness(holds: Callable[[int], bool], k_max: int,
                  start: int = 0) -> Optional[int]:
    """Least k in ``0..k_max`` with ``holds(k)``, or None.

    ``holds`` must be monotone in k (once true, true at every higher
    index), as :func:`op_at` is for nested reals.  The search probes
    ``start``, clamped to ``0..k_max``, then gallops away from it by
    1, 2, 4, 8, ... capped at 0 and ``k_max``: down while ``holds`` is
    true, up while it is false.  It then bisects between the last false
    and the first true probe, so it returns what a scan over 0, 1, 2,
    ... would return whatever the start, using O(log |k - start|)
    probes.  From ``start=0`` it probes 0, 1, 2, 4, 8, ...  A negative
    ``k_max`` returns None without probing.
    """
    if k_max < 0:
        return None
    if not 0 <= start <= k_max:
        start = 0 if start < 0 else k_max
    k = start
    step = 1
    if holds(k):
        below = -1
        while k > 0:
            probe = start - step if step < start else 0
            if not holds(probe):
                below = probe
                break
            k, step = probe, 2 * step
    else:
        below = k
        while below < k_max:
            k = start + step if step < k_max - start else k_max
            if holds(k):
                break
            below, step = k, 2 * step
        else:
            return None
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
    """Smallest c >= 0 such that 2**c bounds |x| at index 0, computed
    once per real.  Index 0 never changes once cached, so neither does
    the answer."""
    c = x._magnitude
    if c is not None:
        return c
    lo, hi, d = x._at(0)
    m = max(abs(lo), abs(hi))
    c = 0
    if m > d:
        c = max(0, m.bit_length() - d.bit_length() - 1)
        while d << c < m:
            c += 1
    x._magnitude = c
    return c


def _nested(real: RealNum) -> RealNum:
    """Mark ``real`` as a generator of ``(lo, hi, d)`` triples that is
    nested by construction, for evaluation at the requested index only.
    Constructors pass a registered real, arithmetic nodes an
    unregistered one."""
    real.nested = True
    return real


class RealRegistry(Sequence[RealNum]):
    """Append-only store of the input reals, indexed densely from 0.

    Entries are never mutated after registration.  Only the
    constructors register, and the arithmetic functions :func:`add`,
    :func:`sub` and :func:`mul` do not, so the registry's length is the
    number of input reals however much arithmetic has been done on
    them.  A registry is a sequence of reals, so it can serve directly
    as the reals ``r_0 .. r_n`` of a knowledge state.
    """

    def __init__(self) -> None:
        self._entries: list[RealNum] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> RealNum:
        return self._entries[index]

    def __iter__(self) -> Iterator[RealNum]:
        return iter(self._entries)

    def register(self, gen: Generator) -> RealNum:
        """Register a raw interval generator and return its handle.

        The generator must produce nested intervals of width at most
        ``2**-k`` as pairs of rationals; each pair is converted once to
        a triple.  It is evaluated prefix by prefix and a violation
        raises :class:`InvalidNesting` on first evaluation.
        Constructors below validate more eagerly.
        """
        real = RealNum(len(self._entries), gen)
        self._entries.append(real)
        return real

    def from_rational(self, q: RationalLike) -> RealNum:
        """The real with constant degenerate interval [q, q]."""
        value = Fraction(q)
        interval = (value.numerator, value.numerator, value.denominator)

        def gen(k: int) -> Triple:
            return interval

        return _nested(self.register(gen))

    def blurred(self, q: RationalLike) -> RealNum:
        """A real converging to q with interval width exactly 2**-k.

        The interval at k is ``[q - 2**-(k+1), q + 2**-(k+1)]``, so the
        limit is only ever known up to the current precision.  With
        ``q = n/m`` the triple is ``(c - m, c + m, m * 2**(k+1))`` where
        ``c = n * 2**(k+1)``.
        """
        value = Fraction(q)
        n, m = value.numerator, value.denominator

        def gen(k: int) -> Triple:
            centre = n << (k + 1)
            return (centre - m, centre + m, m << (k + 1))

        return _nested(self.register(gen))

    def from_table(self, prefix: Sequence[Tuple[RationalLike, RationalLike]],
                   tail: RationalLike) -> RealNum:
        """A real given by an explicit finite interval prefix.

        Past the prefix the sequence is the degenerate interval
        ``[tail, tail]``.  The whole table is validated eagerly; the
        first violated clause raises :class:`InvalidNesting` with the
        offending index.
        """
        intervals = [_triple(lo, hi) for lo, hi in prefix]
        tail_interval = _triple(tail, tail)
        for k, interval in enumerate(intervals):
            _check_interval(k, interval, intervals[k - 1] if k else None)
        if intervals:
            lo, hi, d = intervals[-1]
            tail_n, _, tail_d = tail_interval
            if not (lo * tail_d <= tail_n * d <= hi * tail_d):
                raise InvalidNesting(len(intervals), "tail outside final interval")

        def gen(k: int) -> Triple:
            if k < len(intervals):
                return intervals[k]
            return tail_interval

        return _nested(self.register(gen))


def add(a: RealNum, b: RealNum) -> RealNum:
    """The node a + b.

    The sum's interval at k reads both operands at k + 1, so the width
    bound ``2**-(k+1) + 2**-(k+1) = 2**-k`` is preserved.
    """

    def gen(k: int) -> Triple:
        alo, ahi, ad = a._at(k + 1)
        blo, bhi, bd = b._at(k + 1)
        if ad == bd:
            return (alo + blo, ahi + bhi, ad)
        sa, sb, d = _over_lcm(ad, bd)
        return (alo * sa + blo * sb, ahi * sa + bhi * sb, d)

    return _nested(RealNum(None, gen))


def sub(a: RealNum, b: RealNum) -> RealNum:
    """The node a - b, reading both operands at k + 1."""

    def gen(k: int) -> Triple:
        alo, ahi, ad = a._at(k + 1)
        blo, bhi, bd = b._at(k + 1)
        if ad == bd:
            return (alo - bhi, ahi - blo, ad)
        sa, sb, d = _over_lcm(ad, bd)
        return (alo * sa - bhi * sb, ahi * sa - blo * sb, d)

    return _nested(RealNum(None, gen))


def mul(a: RealNum, b: RealNum) -> RealNum:
    """The node a * b.

    The product reads its operands at ``k + s`` where the shift
    ``s = c_a + c_b + 2`` is fixed at construction from magnitude
    bounds ``2**c_x`` at index 0.  Endpoints are the min and max of the
    four endpoint products, over the product of the operands'
    denominators; when neither operand straddles zero, the signs name
    those two products and only they are computed.  Width bound: each
    factor interval at k + s has width at most ``2**-(k+s)`` and
    magnitude at most ``2**c_x``, so the product width is at most
    ``(2**c_a + 2**c_b) * 2**-(k+s) <= 2**-(k+1)``.
    """
    shift = _magnitude_exponent(a) + _magnitude_exponent(b) + 2

    def gen(k: int) -> Triple:
        alo, ahi, ad = a._at(k + shift)
        blo, bhi, bd = b._at(k + shift)
        if alo >= 0:
            if blo >= 0:
                return (alo * blo, ahi * bhi, ad * bd)
            if bhi <= 0:
                return (ahi * blo, alo * bhi, ad * bd)
        elif ahi <= 0:
            if blo >= 0:
                return (alo * bhi, ahi * blo, ad * bd)
            if bhi <= 0:
                return (ahi * bhi, alo * blo, ad * bd)
        products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return (min(products), max(products), ad * bd)

    return _nested(RealNum(None, gen))
