"""Exact computable reals as lazily evaluated nested rational intervals.

A real number is represented by a total function from a precision index
``k`` to a rational interval ``[lo, hi]``.  Successive intervals are
nested, and the width at index ``k`` is at most ``2**-k``, so the
sequence pins down a unique real.  All endpoint arithmetic is exact and
no floating point is used anywhere.

Internally every interval is one integer triple ``(lo, hi, d)`` with
``d > 0``, meaning ``[lo/d, hi/d]``: both endpoints share one
denominator, which is a power of two for dyadic inputs and whatever
the rationals need otherwise.  A difference, :func:`sub`, puts its
operands over the lcm of the two denominators, and operands over one
``d`` keep it.  The one other node, :func:`det2`, is the difference of
two products ``a*b - c*d``.  It multiplies its factors' numerators and
denominators; a product's endpoints are the min and max of the four
endpoint products, and when neither factor straddles zero the signs say
which two products those are, so only those two are taken.  It joins
the two products as :func:`sub` joins its operands.  Comparisons
cross-multiply.  Nothing is rounded and nothing is normalised, so each
triple equals, as a pair of rationals, the interval that
:class:`fractions.Fraction` arithmetic would give.
The public :meth:`RealNum.interval_at` returns that interval as a
``Fraction`` pair, and a raw generator handed to
:meth:`RealRegistry.from_generator` returns ``Fraction`` pairs,
converted once on evaluation.

An affine real ``(c, w, l)``, with ``2w <= l``, is one whose triple at
every k is ``((c << k) - w, (c << k) + w, l << k)``: the interval of
centre ``c/l`` and radius ``w / (l * 2**k)``, so its width is at most
``2**-k`` and each interval nests in the one before.  A blurred real
``n/m`` is the affine real ``(2n, m, 2m)``.  Affine reals are closed
under :func:`sub`, and its join has a closed form that reads no
operand.  Read at ``k + 1``, the operands' denominators
are ``l1 << (k+1)`` and ``l2 << (k+1)``, whose gcd is ``g << (k+1)``
for ``g = gcd(l1, l2)``.  So the join's scale factors ``sa = l2/g``
and ``sb = l1/g`` (both 1 when ``l1 == l2``, which is when the two
denominators are equal) do not depend on k, and the join is the
affine real ``(2(c1*sa - c2*sb), w1*sa + w2*sb, 2*l1*sa)``: the same
integers as the join of the operands' triples, and again
``2w <= l``.  Only blurred reals and differences of them are affine; a
rational, a table, a raw generator or a :func:`det2` is not, and a
difference with such an operand reads both operands at ``k + 1``.

A :func:`det2` of four affine reals reads no factor either.  It
computes each factor's triple at its shift ``K = k + s`` from
``(c, w, l)`` and takes the two products, whose denominators are
``P << 2k`` and ``Q << 2k`` for ``P = (l_a * l_b) << 2 * s_ab`` and
``Q = (l_c * l_d) << 2 * s_cd``.  Their gcd is ``gcd(P, Q) << 2k``,
so the scale factors that join the products, ``Q / gcd(P, Q)`` and
``P / gcd(P, Q)``, do not depend on k and are computed once, and the
joined triple is the one the factors' triples give.  A factor's magnitude
exponent is read from ``(c, w, l)`` too, so no factor is evaluated
at any index.  The same integers also say where the interval first
excludes zero: with ``t = 2**k``, its numerators' centre grows like
``A * t**2`` and their half-width like ``B * t``, for integers ``A``,
the numerator of the limit over the denominator at 0, and ``B``, both
fixed by the coefficients (see :func:`_det2_estimate`).  So the least
such k is about ``B.bit_length() - |A|.bit_length()``, and ``A == 0``
means the limit is zero, which every interval contains, so no k
excludes zero.

This affine arithmetic is one set of functions on integer tuples, and
the nodes over affine reals wrap them: :func:`_affine_difference`
gives the ``(c, w, l)`` of a difference, :func:`_affine_magnitude` its
magnitude exponent, :func:`_det2_terms` the integers of a ``det2`` of
four such ``(c, w, l, e)`` (``e`` the magnitude exponent),
:func:`_det2_at` its triple at k and :func:`_det2_estimate` the
estimate above.  A caller that holds the tuples, such as an
orientation of blurred points, builds the ``det2`` node from them with
:func:`_affine_det2` and builds no node per factor.

A :class:`RealRegistry` holds the input reals only: its constructors
register each real under a dense index.  Differences and differences
of products are the functions :func:`sub` and :func:`det2`; they
return nodes with no index that know nothing of any registry, and a
node and its cached intervals live only as long as the caller keeps
them.  The learners name reals by their position in whatever sequence
of reals they are given, a registry or a plain list.

Evaluation is lazy in precision as well as in time.  Every real is a
generator of triples that is nested by construction, evaluated only
at the indices actually read: a :func:`det2` read at ``k`` reads its
factors at ``k + shift`` and nothing below it.  A raw generator has
no such proof, so :meth:`RealRegistry.from_generator` wraps it in a
triple generator that evaluates the whole prefix ``0..k`` and checks
each new interval against its predecessor in every build.

Strict order between two reals is observed through :func:`op_at`, a
decidable precision-indexed predicate: ``op_at(r, s, k)`` holds when
r's interval at ``k`` lies strictly below s's interval at ``k``.  The
predicate is monotone in ``k``, irreflexive, asymmetric, and
transitive with witness ``max(k, l)``; those properties are theorems
of the nesting invariants and are exercised by the test suite.
Monotonicity is what lets :func:`least_witness` find the least
witnessing precision by galloping and bisection instead of a scan, and
lets the gallop start from any precision: a caller that expects the
witness near some k, such as the estimate of an affine ``det2``,
starts there, and the least witness is the same.  Two affine reals
need no interval and no search.  Cross-multiplied and divided by
``2**k``, r's upper endpoint at k lies below s's lower endpoint exactly
when ``G << k > S``, for integers ``G`` (the gap of the limits times
``l1 * l2``) and ``S`` (the sum of the radii at 0 times it) fixed by
the two ``(c, w, l)``; so :func:`op_at` is that test, and
:func:`find_strict_witness` returns the least such k, the bit length
of ``S // G``.  Any other pair reads intervals.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable, Iterator, Optional, Tuple, Union

Interval = Tuple[Fraction, Fraction]
# (lo, hi, d) with d > 0, meaning the interval [lo/d, hi/d]
Triple = Tuple[int, int, int]
# (c, w, l) with 0 <= 2 * w <= l, the affine real with triple
# ((c << k) - w, (c << k) + w, l << k) at every k
Affine = Tuple[int, int, int]
# (c, w, l, e): an affine real and its magnitude exponent
Measured = Tuple[int, int, int, int]
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


def _fraction(q: RationalLike) -> Fraction:
    """``q`` as a ``Fraction``: an exact ``Fraction`` is taken as it is
    (``Fraction(q)`` would only copy its numerator and denominator), and
    anything else, a subclass included, goes through ``Fraction(q)``."""
    return q if type(q) is Fraction else Fraction(q)


def _triple(lo: RationalLike, hi: RationalLike) -> Triple:
    """The rational pair ``(lo, hi)`` over the lcm of its denominators."""
    lo, hi = _fraction(lo), _fraction(hi)
    s_lo, s_hi, d = _over_lcm(lo.denominator, hi.denominator)
    return (lo.numerator * s_lo, hi.numerator * s_hi, d)


def _check_interval(k: int, interval: Triple,
                    outer: Optional[Triple]) -> None:
    """Raise :class:`InvalidNesting` for the first clause that the
    interval at ``k`` violates, given the interval at ``k - 1`` if known.

    The one implementation of the clauses: :meth:`RealNum._at` calls it
    on every computed interval in debug builds, and the table and raw
    generator constructors on every interval they check."""
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
    carries its registry index; an arithmetic node (:func:`sub`,
    :func:`det2`) has ``index`` None.  No real refers back to a
    registry.  Every real has one evaluation path: its generator
    returns the ``(lo, hi, d)`` triple of the requested index only,
    and the triple is cached, so the generator is evaluated at most
    once per index.  In debug builds :func:`_check_interval` checks the
    new interval for ``lo <= hi``, width at most ``2**-k`` and nesting
    in a cached ``k - 1``, then a cached ``k + 1`` for nesting in the
    new interval.  A raw generator of
    ``Fraction`` pairs is checked in every build by the triple
    generator that :meth:`RealRegistry.from_generator` wraps it in.
    The magnitude exponent that :func:`det2` reads from index 0 is
    cached in ``_magnitude`` once computed, so a node shared by many
    products reads it once.  An affine real (see the module docstring)
    keeps its ``(c, w, l)`` in ``_affine``, which is None for every
    other real; its magnitude exponent and, as a factor of a
    :func:`det2` of affine reals, its triples are computed from it, so
    such a real is never evaluated.  A :func:`det2` node of four affine
    reals keeps its :func:`_det2_terms` in ``_terms``, from which
    :func:`_det2_estimate` estimates its witness; the slot is None for
    every other real.
    """

    __slots__ = ("index", "_gen", "_cache", "_magnitude", "_affine", "_terms")

    def __init__(self, index: Optional[int], gen: Callable[[int], Triple]):
        self.index = index
        self._gen = gen
        self._cache: dict[int, Triple] = {}
        self._magnitude: Optional[int] = None
        self._affine: Optional[Affine] = None
        self._terms: Optional[Tuple[int, ...]] = None

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
        interval = self._gen(k)
        if __debug__:
            _check_interval(k, interval, cache.get(k - 1))
            if (inner := cache.get(k + 1)) is not None:
                _check_interval(k + 1, inner, interval)
        cache[k] = interval
        return interval

    def __repr__(self) -> str:
        return f"RealNum({self.index})"


def _affine_gap(a: Affine, b: Affine) -> Tuple[int, int]:
    """``(G, S)`` of the order test of two affine reals
    ``a = (c1, w1, l1)`` and ``b = (c2, w2, l2)``: ``G = c2*l1 - c1*l2``
    and ``S = w1*l2 + w2*l1``, so ``a``'s upper endpoint at k lies
    strictly below ``b``'s lower endpoint exactly when ``G << k > S``."""
    c1, w1, l1 = a
    c2, w2, l2 = b
    return c2 * l1 - c1 * l2, w1 * l2 + w2 * l1


def op_at(r: RealNum, s: RealNum, k: int) -> bool:
    """Decide whether r is strictly below s at precision ``k``.

    True exactly when r's upper endpoint at ``k`` is strictly less than
    s's lower endpoint at ``k``.  A single True answer at any precision
    certifies the strict real-number order r < s.  For two affine reals
    ``(c1, w1, l1)`` and ``(c2, w2, l2)`` that is
    ``((c1 << k) + w1) * l2 < ((c2 << k) - w2) * l1``, the
    cross-multiplied endpoints divided by ``2**k``, which is the test
    ``G << k > S`` of :func:`_affine_gap`: no interval is read or
    cached.
    """
    if r._affine is not None and s._affine is not None:
        gap, spread = _affine_gap(r._affine, s._affine)
        return gap << k > spread
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
    the search budget was exhausted, not that r < s is false.  For two
    affine reals the least k with ``G << k > S`` (see
    :func:`_affine_gap`) is computed, not searched: none when
    ``G <= 0``, else ``(S // G).bit_length()``, since ``G << k > S``
    exactly when ``2**k > S // G``.  That k is at least 0, so a negative
    ``k_max`` returns None.  No interval is read.  Any other pair is
    searched by :func:`least_witness` over :func:`op_at`.
    """
    if r._affine is not None and s._affine is not None:
        gap, spread = _affine_gap(r._affine, s._affine)
        if gap <= 0:
            return None
        k = (spread // gap).bit_length()
        return k if k <= k_max else None
    return least_witness(lambda k: op_at(r, s, k), k_max)


def _affine_magnitude(affine: Affine) -> int:
    """Smallest e >= 0 such that 2**e bounds the affine real
    ``(c, w, l)``, whose triple at index 0 is ``(c - w, c + w, l)``, so
    |x| is at most ``m / l`` for ``m = |c| + w``."""
    centre, w, l = affine
    m = abs(centre) + w
    # m <= l << e exactly when 2**e > ceil(m / l) - 1 = (m - 1) // l
    return ((m - 1) // l).bit_length() if m > l else 0


def _magnitude_exponent(x: RealNum) -> int:
    """Smallest c >= 0 such that 2**c bounds |x| at index 0, and so at
    every index, computed once per real: the bound that fixes the
    precision at which :func:`det2` reads x as a factor.  Index 0 never
    changes once cached, so neither does the answer.  It is
    :func:`_affine_magnitude` of an affine real: of x's ``_affine``,
    computed without evaluating or caching the real, or of
    ``(lo + hi, hi - lo, 2d)`` for x's triple ``(lo, hi, d)`` at 0, the
    affine real of centre ``(lo + hi) / 2d`` and radius
    ``(hi - lo) / 2d`` whose interval at 0 is x's (``2w <= l``, as x's
    width at 0 is at most 1), so its bound ``(|c| + w) / l`` is
    ``max(|lo|, |hi|) / d``."""
    c = x._magnitude
    if c is None:
        affine = x._affine
        if affine is None:
            lo, hi, d = x._at(0)
            affine = (lo + hi, hi - lo, 2 * d)
        c = x._magnitude = _affine_magnitude(affine)
    return c


def _affine_real(make: Callable[[Callable[[int], Triple]], RealNum],
                 affine: Affine) -> RealNum:
    """The real that ``make`` builds on the generator of the affine
    real ``affine = (c, w, l)``: the triple
    ``((c << k) - w, (c << k) + w, l << k)`` at every k."""
    c, w, l = affine

    def gen(k: int) -> Triple:
        centre = c << k
        return (centre - w, centre + w, l << k)

    real = make(gen)
    real._affine = affine
    return real


class RealRegistry(Sequence[RealNum]):
    """Append-only store of the input reals, indexed densely from 0.

    Entries are never mutated after registration.  Only the
    constructors register, and the arithmetic functions :func:`sub` and
    :func:`det2` do not, so the registry's length is the number of
    input reals however much arithmetic has been done on them.  A
    registry is a sequence of reals, so it can serve directly as the
    reals ``r_0 .. r_n`` of a knowledge state.
    """

    def __init__(self) -> None:
        self._entries: list[RealNum] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> RealNum:
        return self._entries[index]

    def __iter__(self) -> Iterator[RealNum]:
        return iter(self._entries)

    def register(self, gen: Callable[[int], Triple]) -> RealNum:
        """Register a generator of ``(lo, hi, d)`` triples and return its
        handle.

        The generator must be nested by construction: its triple at
        every k has width at most ``2**-k`` and lies inside its triple
        at ``k - 1``.  It is the one entry of every constructor below,
        and it is evaluated at the requested index only, with the
        checks of :meth:`RealNum._at`.
        """
        real = RealNum(len(self._entries), gen)
        self._entries.append(real)
        return real

    def from_generator(self, gen: Generator) -> RealNum:
        """A real given by a raw generator of rational pairs.

        The generator must produce nested intervals of width at most
        ``2**-k``.  It is wrapped in a triple generator that, to read
        index k, evaluates the missing prefix up to k in order,
        converts each pair once to a triple and checks it against its
        predecessor in every build, ``python -O`` included: the first
        violated clause raises :class:`InvalidNesting`.  The checked
        prefix is kept, so each index is evaluated once.
        """
        prefix: list[Triple] = []

        def nested(k: int) -> Triple:
            for j in range(len(prefix), k + 1):
                interval = _triple(*gen(j))
                _check_interval(j, interval, prefix[-1] if j else None)
                prefix.append(interval)
            return prefix[k]

        return self.register(nested)

    def from_rational(self, q: RationalLike) -> RealNum:
        """The real with constant degenerate interval [q, q]: the table
        with no prefix and tail q, whose triple at every k is
        ``(n, n, d)`` for ``q = n/d``."""
        return self.from_table((), q)

    def blurred(self, q: RationalLike) -> RealNum:
        """A real converging to q with interval width exactly 2**-k.

        The interval at k is ``[q - 2**-(k+1), q + 2**-(k+1)]``, so the
        limit is only ever known up to the current precision.  With
        ``q = n/m`` the triple is ``(c - m, c + m, m * 2**(k+1))`` where
        ``c = n * 2**(k+1)``: the affine real ``(2n, m, 2m)``, so a
        difference of two blurred reals reads neither (see :func:`sub`).
        An exact ``Fraction`` q is taken as it is, anything else goes
        through ``Fraction(q)``.
        """
        value = _fraction(q)
        n, m = value.numerator, value.denominator
        return _affine_real(self.register, (2 * n, m, 2 * m))

    def from_table(self, prefix: Sequence[Tuple[RationalLike, RationalLike]],
                   tail: RationalLike) -> RealNum:
        """A real given by an explicit finite interval prefix.

        Past the prefix the sequence is the degenerate interval
        ``[tail, tail]``.  An exact ``Fraction`` endpoint or tail is
        taken as it is; an int, a string or another rational goes
        through ``Fraction``.  The whole table is validated eagerly; the
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
            return intervals[k] if k < len(intervals) else tail_interval

        return self.register(gen)


def _affine_difference(a: Affine, b: Affine) -> Affine:
    """The ``(c, w, l)`` of ``a - b`` for two affine reals: the triple
    at every k that :func:`sub` joins from the operands' triples at
    k + 1."""
    c1, w1, l1 = a
    c2, w2, l2 = b
    sa, sb, l = _over_lcm(l1, l2)
    return (2 * (c1 * sa - c2 * sb), w1 * sa + w2 * sb, 2 * l)


def _join(a: Triple, b: Triple) -> Triple:
    """The triple of ``a - b``, with both operands over the lcm of their
    denominators."""
    alo, ahi, ad = a
    blo, bhi, bd = b
    sa, sb, d = _over_lcm(ad, bd)
    return (alo * sa - bhi * sb, ahi * sa - blo * sb, d)


def sub(a: RealNum, b: RealNum) -> RealNum:
    """The node a - b.

    Its interval at k reads both operands at k + 1, so the width bound
    ``2**-(k+1) + 2**-(k+1) = 2**-k`` is preserved.  When both operands
    are affine reals, so is the difference, and its generator computes
    that join in closed form and reads neither operand.
    """
    if a._affine is not None and b._affine is not None:
        return _affine_real(partial(RealNum, None),
                            _affine_difference(a._affine, b._affine))

    def gen(k: int) -> Triple:
        return _join(a._at(k + 1), b._at(k + 1))

    return RealNum(None, gen)


def _product(a: Triple, b: Triple) -> Triple:
    """The triple of the interval product of two triples: the min and
    max of the four endpoint products over ``ad * bd``.  When neither
    operand straddles zero, the signs name those two products and only
    they are computed."""
    alo, ahi, ad = a
    blo, bhi, bd = b
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


def _det2_terms(a: Measured, b: Measured, c: Measured,
                d: Measured) -> Tuple[int, ...]:
    """The integers of the :func:`det2` node ``a * b - c * d`` of four
    affine reals, each given as ``(c, w, l, e)`` with ``e`` its magnitude
    exponent, so the products are read at ``k + s_ab`` and ``k + s_cd``.
    The product denominators are ``P << 2k`` and ``Q << 2k``, whose gcd
    is ``gcd(P, Q) << 2k``, so the join's scale factors ``sp`` and
    ``sq`` and ``dd = lcm(P, Q)`` come from ``_over_lcm(P, Q)`` once, and
    the denominator at k is ``dd << 2k``.  The terms are
    ``(ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, dd)``."""
    s_ab, s_cd = a[3] + b[3] + 3, c[3] + d[3] + 3
    sp, sq, dd = _over_lcm(a[2] * b[2] << 2 * s_ab, c[2] * d[2] << 2 * s_cd)
    return (*a[:2], *b[:2], s_ab, sp, *c[:2], *d[:2], s_cd, sq, dd)


def _det2_at(terms: Tuple[int, ...], k: int) -> Triple:
    """The triple at k of the :func:`det2` node of :func:`_det2_terms`:
    the factors' triples at their shifts, computed from ``(c, w, l)``,
    their :func:`_product` pairs, and the join.  The products' own
    denominators are not needed, so the factor triples carry 1 in their
    place."""
    ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, dd = terms
    k_ab, k_cd = k + s_ab, k + s_cd
    x, y = ca << k_ab, cb << k_ab
    lo, hi, _ = _product((x - wa, x + wa, 1), (y - wb, y + wb, 1))
    x, y = cc << k_cd, cd << k_cd
    qlo, qhi, _ = _product((x - wc, x + wc, 1), (y - wd, y + wd, 1))
    return (lo * sp - qhi * sq, hi * sp - qlo * sq, dd << 2 * k)


def _det2_estimate(terms: Tuple[int, ...]) -> Optional[int]:
    """About the least k at which the interval of the :func:`det2` node
    of :func:`_det2_terms` excludes zero.  Write ``t = 2**k``: the
    numerators' centre grows like ``A * t**2`` and their half-width like
    ``B * t``, for
    ``A = (sp*ca*cb << 2*s_ab) - (sq*cc*cd << 2*s_cd)``, the node's
    limit times ``dd``, and
    ``B = (sp*(|ca|*wb + |cb|*wa) << s_ab) + (sq*(|cc|*wd + |cd|*wc) << s_cd)``.
    So the interval excludes zero from about ``t > B / |A|``, and the
    estimate is ``max(0, B.bit_length() - |A|.bit_length())``.
    ``A == 0`` means the limit is zero, which every interval contains,
    so no k excludes zero and there is no estimate: None."""
    ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, _ = terms
    lead = (sp * ca * cb << 2 * s_ab) - (sq * cc * cd << 2 * s_cd)
    if not lead:
        return None
    spread = ((sp * (abs(ca) * wb + abs(cb) * wa) << s_ab)
              + (sq * (abs(cc) * wd + abs(cd) * wc) << s_cd))
    return max(0, spread.bit_length() - abs(lead).bit_length())


def _affine_det2(terms: Tuple[int, ...]) -> RealNum:
    """The :func:`det2` node of four affine reals from their
    :func:`_det2_terms`: its generator is :func:`_det2_at` of them, and
    it keeps them in ``_terms``."""
    node = RealNum(None, partial(_det2_at, terms))
    node._terms = terms
    return node


def det2(a: RealNum, b: RealNum, c: RealNum, d: RealNum) -> RealNum:
    """The node a * b - c * d as one node.

    At every k each product is the :func:`_product` of its factors read
    at ``k + c_x + c_y + 3``, where ``2**c_x`` bounds ``|x|`` (see
    :func:`_magnitude_exponent`), and the two products are joined by
    :func:`_join`.  Width bound: each factor interval at ``k + s`` has
    width at most ``2**-(k+s)`` and magnitude at most ``2**c_x``, so
    each product has width at most
    ``(2**c_x + 2**c_y) * 2**-(k+s) <= 2**-(k+2)`` and the difference
    at most ``2**-(k+1)``.  When all four factors are affine reals, the
    node's generator is :func:`_det2_at` of their
    :func:`_det2_terms`, so it reads no factor.
    """
    if None not in (a._affine, b._affine, c._affine, d._affine):
        return _affine_det2(_det2_terms(*((*x._affine, _magnitude_exponent(x))
                                          for x in (a, b, c, d))))
    s_ab = _magnitude_exponent(a) + _magnitude_exponent(b) + 3
    s_cd = _magnitude_exponent(c) + _magnitude_exponent(d) + 3

    def gen(k: int) -> Triple:
        return _join(_product(a._at(k + s_ab), b._at(k + s_ab)),
                     _product(c._at(k + s_cd), d._at(k + s_cd)))

    return RealNum(None, gen)
