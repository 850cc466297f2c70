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
two products ``a*b - c*d``.  It multiplies its factors' denominators
itself, and :func:`_product` gives the numerators, from the four
integer endpoints: the min and max of the four endpoint products, and
when neither factor straddles zero the signs say which two products
those are, so only those two are taken.  It joins the two products as
:func:`sub` joins its operands.  Comparisons
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
``n/m`` is the affine real ``(2n, m, 2m)``, and a constant real
``n/d``, a rational or a table with no prefix, is ``(n, 0, d)``, of
radius 0, so its intervals are the pair ``(n/d, n/d)`` at every k,
as a table's tail is.  :func:`sub` and
:func:`det2` read an affine operand through its triples as they read
any other.  Closed-form affine arithmetic, comparisons aside (see
below), lives only in a set of functions on integer tuples, which give
the triples that those nodes give over affine reals and read no real.

:func:`_affine_difference` gives the ``(c, w, l)`` of a difference of
two affine reals.  Read at ``k + 1``, the operands' denominators are
``l1 << (k+1)`` and ``l2 << (k+1)``, whose gcd is ``g << (k+1)`` for
``g = gcd(l1, l2)``.  So the join's scale factors ``sa = l2/g`` and
``sb = l1/g`` (both 1 when ``l1 == l2``, which is when the two
denominators are equal, so that case takes no gcd) do not depend on
k, and the difference is the affine real
``(2(c1*sa - c2*sb), w1*sa + w2*sb, 2*l1*sa)``: the same integers as
the join of the operands' triples, and again ``2w <= l``.
An affine real's magnitude exponent, :func:`_affine_magnitude`, is
the least ``e >= 0`` with ``(|c| + w) / l <= 2**e``.

:func:`_det2_bound` gives the integers, the terms, of a ``det2`` of
four affine reals, each given as its ``(c, w, l)``, when a search
needs them, and :func:`_det2_at` its triple at k from them: it
computes each factor's triple at its shift ``K = k + s`` from
``(c, w, l)``, where ``s_ab = e_a + e_b + 3`` for the factors'
magnitude exponents, and takes the two products, whose denominators
are ``P << 2k`` and ``Q << 2k`` for ``P = (l_a * l_b) << 2 * s_ab``
and ``Q = (l_c * l_d) << 2 * s_cd``.
Their gcd is ``gcd(P, Q) << 2k``, so the scale factors that join the
products, ``Q / gcd(P, Q)`` and ``P / gcd(P, Q)``, do not depend on k
and are computed once, and the joined triple is the one the factors'
triples give.  Nor do the products' own denominators enter it: the
factors' endpoints go to :func:`_product` as plain integers.

The same integers prove where the interval excludes zero.  At k a
factor's centre numerator is ``x = ca << (k + s_ab)``, and so on, and
every endpoint product of ``[x - wa, x + wa] * [y - wb, y + wb]`` lies
within ``|x|*wb + |y|*wa + wa*wb`` of ``x*y``.  So the joined
numerators lie within ``(spread << k) + slack`` of their centre
``lead << 2k``, for integers ``lead`` (the limit times
``dd = lcm(P, Q)``), ``spread`` and ``slack`` fixed by the
coefficients, and the interval excludes zero on ``lead``'s side at
every k with ``(|lead| << 2k) - (spread << k) > slack``.
:func:`_det2_bound` gives the least such k, found by exact integer
tests, not by reading intervals.  It is at least the node's least
witness.

Most bounds need no terms.  The limit times ``l_a*l_b*l_c*l_d`` is
the integer ``limit = ca*cb*l_c*l_d - cc*cd*l_a*l_b``, and
:func:`_det2_bound` tests it first, as a static error filter does
(Fortune and Van Wyk 1996; Shewchuk 1997).  Every factor has
``|c|/l <= 2**e`` and ``w/l <= 1/2``, and ``s_ab = e_a + e_b + 3``,
so the ab part of ``spread / dd`` is
``(|ca|/l_a * wb/l_b + |cb|/l_b * wa/l_a) / 2**s_ab``, at most
``(2**-e_b + 2**-e_a) / 16 <= 1/8``, and the ab part of
``slack / dd`` is ``(wa/l_a) * (wb/l_b) / 4**s_ab``, at most
``1/256``; with the cd parts, ``(spread + slack) / dd <= 1/4 + 1/128``,
whatever the ``e``.
Since ``|lead| / dd`` is ``|limit| / (l_a*l_b*l_c*l_d)``, a limit with
``2 * |limit| > l_a*l_b*l_c*l_d`` passes the test at 0, and its bound
is 0 with no magnitude exponent, no terms, no gcd and no shift; the
limit's sign is ``lead``'s.

A zero limit, ``lead == 0``, is one that every interval contains, so
no k excludes zero.  A caller that holds the tuples, such as an
orientation whose four coordinate differences each have two affine
operands, takes their bound, which may decide a side at 0 with no
interval, and otherwise builds its ``det2`` node from their terms
with :func:`_affine_det2`: one node, with none per factor, that reads
no real.  A caller whose tuples sit beside other nodes, such as a
coordinate difference beside a :func:`sub` node, reads each tuple
through its affine real, the node that :func:`_affine_real` builds
with ``partial(RealNum, None)``, which reads no real either, and takes
the generic :func:`det2` of them all.  That :func:`det2` reads the
node's magnitude exponent from its triple at 0, which is
:func:`_affine_magnitude` of the tuple.  So the generic kernel,
:func:`sub` and :func:`det2`, keeps no
knowledge of affine reals: only a table with a prefix or a raw
generator brings an input to it, and an affine real beside one is
read there through its triples.

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
witness near some k, such as the proven bound of an
:func:`_affine_det2` node, starts there, and the least witness is the
same.  Two affine reals
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
# ((c << k) - w, (c << k) + w, l << k) at every k; a builtin tuple, so
# that a union of it with a class is not cached by typing
Affine = tuple[int, int, int]
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
    An affine real (see the module docstring), such as a blurred or a
    constant one, keeps its
    ``(c, w, l)`` in ``_affine``, which is None for every other real:
    :func:`op_at` and :func:`find_strict_witness` compare two affine
    reals from it in closed form, and a caller of the tuple functions
    reads it in place of the real, while :func:`sub` and :func:`det2`
    read the real's triples.
    """

    __slots__ = ("index", "_gen", "_cache", "_affine")

    def __init__(self, index: Optional[int], gen: Callable[[int], Triple]):
        self.index = index
        self._gen = gen
        self._cache: dict[int, Triple] = {}
        self._affine: Optional[Affine] = None

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
    every index: the bound that fixes the precision at which
    :func:`det2` reads x as a factor.  It is :func:`_affine_magnitude`
    of ``(lo + hi, hi - lo, 2d)`` for x's cached triple ``(lo, hi, d)``
    at 0, the affine real of centre ``(lo + hi) / 2d`` and radius
    ``(hi - lo) / 2d`` whose interval at 0 is x's (``2w <= l``, as x's
    width at 0 is at most 1), so its bound ``(|c| + w) / l`` is
    ``max(|lo|, |hi|) / d``.  For an affine real ``(c, w, l)`` that is
    :func:`_affine_magnitude` of it, since ``floor((2m - 1) / 2l)``
    equals ``floor((m - 1) / l)`` for ``m = |c| + w``."""
    lo, hi, d = x._at(0)
    return _affine_magnitude((lo + hi, hi - lo, 2 * d))


def _affine_at(affine: Affine, k: int) -> Triple:
    """The triple at k of the affine real ``affine = (c, w, l)``:
    ``((c << k) - w, (c << k) + w, l << k)``."""
    c, w, l = affine
    return ((c << k) - w, (c << k) + w, l << k)


def _affine_real(make: Callable[[Callable[[int], Triple]], RealNum],
                 affine: Affine) -> RealNum:
    """The real that ``make`` builds on the generator of the affine
    real ``affine``, :func:`_affine_at` of it, with ``affine`` kept in
    ``_affine``.  ``make`` registers an input real, such as a blurred
    or a constant one, or is ``partial(RealNum, None)`` for a node, such
    as a coordinate difference of the geometry kept as its tuple."""
    real = make(partial(_affine_at, affine))
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
        with no prefix and tail q, the affine real ``(n, 0, d)`` for
        ``q = n/d``."""
        return self.from_table((), q)

    def blurred(self, q: RationalLike) -> RealNum:
        """A real converging to q with interval width exactly 2**-k.

        The interval at k is ``[q - 2**-(k+1), q + 2**-(k+1)]``, so the
        limit is only ever known up to the current precision.  With
        ``q = n/m`` the triple is ``(c - m, c + m, m * 2**(k+1))`` where
        ``c = n * 2**(k+1)``: the affine real ``(2n, m, 2m)``, kept in
        ``_affine`` for the closed forms of :func:`op_at`,
        :func:`find_strict_witness` and the tuple functions (see the
        module docstring).
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
        offending index.  With no prefix the real is the constant
        ``n/d`` of the tail, the affine real ``(n, 0, d)``, kept in
        ``_affine`` for the closed forms as a blurred real is.
        """
        intervals = [_triple(lo, hi) for lo, hi in prefix]
        tail_n, _, tail_d = tail_interval = _triple(tail, tail)
        if not intervals:
            return _affine_real(self.register, (tail_n, 0, tail_d))
        for k, interval in enumerate(intervals):
            _check_interval(k, interval, intervals[k - 1] if k else None)
        lo, hi, d = intervals[-1]
        if not (lo * tail_d <= tail_n * d <= hi * tail_d):
            raise InvalidNesting(len(intervals), "tail outside final interval")

        def gen(k: int) -> Triple:
            return intervals[k] if k < len(intervals) else tail_interval

        return self.register(gen)


def _affine_difference(a: Affine, b: Affine) -> Affine:
    """The ``(c, w, l)`` of ``a - b`` for two affine reals: the triple
    at every k that :func:`sub` joins from the operands' triples at
    k + 1.  Equal denominators need no lcm: the scale factors are 1."""
    c1, w1, l1 = a
    c2, w2, l2 = b
    if l1 == l2:
        return (2 * (c1 - c2), w1 + w2, 2 * l1)
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
    ``2**-(k+1) + 2**-(k+1) = 2**-k`` is preserved.  Affine operands are
    read like any other: the node's triples are those of their
    :func:`_affine_difference`, which is that join in closed form.
    """

    def gen(k: int) -> Triple:
        return _join(a._at(k + 1), b._at(k + 1))

    return RealNum(None, gen)


def _product(alo: int, ahi: int, blo: int, bhi: int) -> Tuple[int, int]:
    """The ``(lo, hi)`` numerators of the interval product of
    ``[alo, ahi]`` and ``[blo, bhi]`` over the product of their
    denominators: the min and max of the four endpoint products.  When
    neither operand straddles zero, the signs name those two products
    and only they are computed."""
    if alo >= 0:
        if blo >= 0:
            return alo * blo, ahi * bhi
        if bhi <= 0:
            return ahi * blo, alo * bhi
    elif ahi <= 0:
        if blo >= 0:
            return alo * bhi, ahi * blo
        if bhi <= 0:
            return ahi * bhi, alo * blo
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products)


def _det2_at(terms: Tuple[int, ...], k: int) -> Triple:
    """The triple at k of the :func:`det2` node whose terms
    :func:`_det2_bound` gives: the factors' endpoints at their shifts,
    computed from ``(c, w, l)``, their :func:`_product` numerators, and
    the join."""
    ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, dd = terms
    k_ab, k_cd = k + s_ab, k + s_cd
    x, y = ca << k_ab, cb << k_ab
    lo, hi = _product(x - wa, x + wa, y - wb, y + wb)
    x, y = cc << k_cd, cd << k_cd
    qlo, qhi = _product(x - wc, x + wc, y - wd, y + wd)
    return (lo * sp - qhi * sq, hi * sp - qlo * sq, dd << 2 * k)


def _det2_bound(a: Affine, b: Affine, c: Affine, d: Affine,
                k_max: int) -> Tuple[Optional[Tuple[int, ...]], int, int]:
    """``(terms, limit, bound)`` of the :func:`det2` node ``a * b - c * d``
    of four affine reals given as ``(c, w, l)``: ``limit`` is the node's
    limit times ``l_a*l_b*l_c*l_d``, and ``bound`` is the least k with
    ``(|lead| << 2k) - (spread << k) > slack``, at which the node's
    interval excludes zero on the limit's side (see the module
    docstring), or ``k_max + 1`` when that k is above ``k_max`` or the
    limit is 0.  The limit comes first: a zero limit gives
    ``(None, 0, k_max + 1)``, and a limit that the module docstring's
    shortcut proves gives ``(None, limit, min(0, k_max + 1))``, with no
    magnitude exponent computed and no terms built.  Otherwise ``terms``
    are ``(ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, dd)``,
    the integers that :func:`_det2_at` reads, whose shifts come from the
    factors' :func:`_affine_magnitude`, and ``lead``, the limit times
    ``dd``, is ``(limit << 2 * (s_ab + s_cd)) // gcd(P, Q)``.  At
    every k the test needs ``2**k > spread / |lead|`` and
    ``4**k > slack / |lead|``, which bit lengths turn into a least
    k >= 0 to start from, and one loop searches up from there.  Twice
    those ratios suffice, so it passes within two steps of the start;
    no step goes past ``k_max + 1``."""
    (ca, wa, la), (cb, wb, lb) = a, b
    (cc, wc, lc), (cd, wd, ld) = c, d
    lab, lcd = la * lb, lc * ld
    limit = ca * cb * lcd - cc * cd * lab
    if not limit:
        return None, 0, k_max + 1
    # the limit above 1/2 in size: bound 0, no terms
    if 2 * abs(limit) > lab * lcd:
        return None, limit, min(0, k_max + 1)
    s_ab = _affine_magnitude(a) + _affine_magnitude(b) + 3
    s_cd = _affine_magnitude(c) + _affine_magnitude(d) + 3
    p, q = lab << 2 * s_ab, lcd << 2 * s_cd
    g = gcd(p, q)
    sp, sq = q // g, p // g
    terms = (ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, p * sp)
    size = (abs(limit) << 2 * (s_ab + s_cd)) // g
    spread = ((sp * (abs(ca) * wb + abs(cb) * wa) << s_ab)
              + (sq * (abs(cc) * wd + abs(cd) * wc) << s_cd))
    slack = sp * wa * wb + sq * wc * wd
    n = size.bit_length()
    k = max(0, spread.bit_length() - n, (slack.bit_length() - n + 1) // 2)
    while k <= k_max and (size << 2 * k) - (spread << k) <= slack:
        k += 1
    return terms, limit, min(k, k_max + 1)


def _affine_det2(terms: Tuple[int, ...]) -> RealNum:
    """The :func:`det2` node of four affine reals from the terms that
    :func:`_det2_bound` gives: its generator is :func:`_det2_at` of
    them."""
    return RealNum(None, partial(_det2_at, terms))


def det2(a: RealNum, b: RealNum, c: RealNum, d: RealNum) -> RealNum:
    """The node a * b - c * d as one node.

    At every k each product is the :func:`_product` of its factors'
    endpoints read at ``k + c_x + c_y + 3``, where ``2**c_x`` bounds
    ``|x|`` (see :func:`_magnitude_exponent`), over the product of their
    denominators, and the two products are joined by :func:`_join`.
    Width bound: each factor interval at ``k + s`` has width at most
    ``2**-(k+s)`` and magnitude at most ``2**c_x``, so each product has
    width at most ``(2**c_x + 2**c_y) * 2**-(k+s) <= 2**-(k+2)`` and the
    difference at most ``2**-(k+1)``.  Affine factors are read like any
    other: over four of them the node's triples are :func:`_det2_at` of
    the terms that :func:`_det2_bound` gives, which :func:`_affine_det2`
    builds a node on without reading the factors.
    """
    s_ab = _magnitude_exponent(a) + _magnitude_exponent(b) + 3
    s_cd = _magnitude_exponent(c) + _magnitude_exponent(d) + 3

    def gen(k: int) -> Triple:
        (alo, ahi, ad), (blo, bhi, bd) = a._at(k + s_ab), b._at(k + s_ab)
        (clo, chi, cd), (dlo, dhi, dd) = c._at(k + s_cd), d._at(k + s_cd)
        return _join((*_product(alo, ahi, blo, bhi), ad * bd),
                     (*_product(clo, chi, dlo, dhi), cd * dd))

    return RealNum(None, gen)
