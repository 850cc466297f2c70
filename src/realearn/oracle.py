"""Exact rational reference implementations.

Everything here works on exact rational data (the known limits of the
reals, or plain rational coordinates) and serves as an
independent check on the interval-based machinery: closed-form
orientation signs, the true argmin, the full bounding condition and an
auditor that challenges exactly-false claims.

Points and candidates are only annotations here, and the auditor binds
:class:`~realearn.least.Challenge` when it is built, so this module
imports neither :mod:`~realearn.geometry` nor :mod:`~realearn.least`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import inf
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .reals import RealNum, _fraction, find_strict_witness

if TYPE_CHECKING:
    from .geometry import RationalPoint
    from .least import Challenge, LeastCandidate


class TieDetected(ValueError):
    """Exact values are not distinct where distinctness is required."""


def exact_orientation(p: RationalPoint, q: RationalPoint,
                      r: RationalPoint) -> int:
    """Sign of the orientation of r relative to the line p -> q."""
    value = (q.x - p.x) * (r.y - p.y) - (r.x - p.x) * (q.y - p.y)
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def exact_min_index(values: Sequence[Fraction]) -> int:
    """Index of the unique minimum; ties are an input error."""
    smallest = min(values)
    hits = [i for i, v in enumerate(values) if v == smallest]
    if len(hits) > 1:
        raise TieDetected(f"minimum {smallest} attained at indices {hits}")
    return hits[0]


def exact_convex_check(points: Sequence[RationalPoint], a: int, b: int,
                       c: int) -> bool:
    """Full bounding condition for apex a and rays a->b, a->c."""
    if len({a, b, c}) != 3:
        return False
    if not all(0 <= i < len(points) for i in (a, b, c)):
        return False
    if exact_orientation(points[a], points[b], points[c]) != 1:
        return False
    for d, point in enumerate(points):
        if d in (a, b, c):
            continue
        if exact_orientation(points[a], points[b], point) != 1:
            return False
        if exact_orientation(points[a], points[c], point) != -1:
            return False
    return True


def separation_bits(p: int, q: int) -> int:
    """Smallest k with 2**-k < p/q, for positive ints p and q that need
    not be coprime."""
    # 2**-k < p/q exactly when 2**k > q/p, that is when 2**k > q // p
    return (q // p).bit_length()


def separation_from_gap(gap: Fraction) -> int:
    """Smallest k with 2**-k < gap; a separation precision for blurred
    reals whose limits differ by exactly ``gap``."""
    if gap <= 0:
        raise ValueError(f"gap must be positive, got {gap}")
    return separation_bits(gap.numerator, gap.denominator)


def _float(ratio: Tuple[int, int]) -> float:
    """The float nearest ``n / d``, or an infinity of its sign past the
    float range."""
    n, d = ratio
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


class OracleAuditor:
    """Challenges exactly-false claims of the current candidate.

    Knows the true rational limit of each of the reals ``r_0 .. r_n``
    (``true_values[i]`` is the limit of ``reals[i]``).  While the
    candidate is not the true argmin, the auditor picks the lowest
    index whose value lies strictly below the candidate's and
    challenges that claim at a separation precision: the least strict
    witness :func:`~realearn.reals.find_strict_witness` finds between
    the two reals, within a budget set by the gap of their limits.  For
    blurred reals that witness is a closed form of their coefficients,
    so a challenge reads no interval.
    Once the true argmin is proposed it accepts.  For each index m the
    lowest index whose value lies below m's is found once, from the
    values in sorted order, so a challenge scans nothing.  A true value
    that is an exact ``Fraction`` is taken as it is, and any other
    rational goes through ``Fraction(v)``.  Each value's numerator and
    denominator are kept as an integer pair; ties are found on those
    pairs, which are equal exactly when the values are, and a challenge
    takes the gap's :func:`separation_bits` from them without building a
    ``Fraction``.  The values are sorted on keys of their float first:
    int true division rounds correctly, so the floats are in the
    values' order, and only values with equal floats are compared as
    fractions.  No key grows with the number of values or with
    their denominators.

    From the empty state this auditor learns every pair at its least
    witness, because each challenged claim is a bare ``Assumed(m, j)``
    with m the pass's candidate and j > m.  Write v_i for the limit of
    r_i.  By induction over restarts, every entry (a, b) has b > a, and
    b is the lowest index with v_b < v_a:

    * each a gets at most one entry, since once (m, j) is learned a
      pass that reaches m steps on to j, and m is never again a final
      candidate;
    * so a pass steps 0 = s_0 -> s_1 -> ... -> s_t = m along this
      relation, and any i < m lies in some [s_k, s_(k+1)) with k < t,
      so v_i >= v_(s_k) > v_m;
    * so the challenged j, the lowest index with v_j < v_m, is greater
      than m, no strict step follows m, ``evidences[j]`` is
      ``Assumed(m, j)``, and the new entry keeps the invariant.

    Each blame therefore falls on the challenged claim (m, j), and the
    learned witness is the challenge's precision, the least k with
    ``op_at(r_j, r_m, k)``; for blurred reals, whose intervals are
    [v - 2^-(k+1), v + 2^-(k+1)], that is :func:`separation_from_gap`
    of v_m - v_j.  The restart count is the length of the chain from 0
    to the argmin, n on a descending list.  None of this holds for a
    scripted auditor: it can challenge a chained claim, whose blamed
    witness can then exceed the least witness of the blamed pair.
    """

    def __init__(self, reals: Sequence[RealNum], true_values: Sequence[Fraction]):
        from .least import Challenge

        self._Challenge = Challenge
        values = [_fraction(v) for v in true_values]
        self._reals = reals
        self._ratios = [(v.numerator, v.denominator) for v in values]
        # two Fractions are equal exactly when their reduced pairs are
        if len(set(self._ratios)) != len(values):
            raise TieDetected("true values must be distinct")
        order = [i for _, _, i in sorted(zip(map(_float, self._ratios),
                                              values, range(len(values))))]
        # the lowest of the indices before m in order, or None
        self._first_below: List[Optional[int]] = [None] * len(values)
        for m, lowest in zip(order[1:], accumulate(order, min)):
            self._first_below[m] = lowest

    def _separation(self, j: int, m: int) -> int:
        (a, b), (c, d) = self._ratios[m], self._ratios[j]
        # v_m - v_j = (a*d - c*b) / (b*d), unreduced
        budget = separation_bits(a * d - c * b, b * d) + 64
        witness = find_strict_witness(self._reals[j], self._reals[m], budget)
        if witness is None:
            raise RuntimeError(
                f"reals {j} and {m} do not separate within precision {budget}")
        return witness

    def challenge(self, cand: LeastCandidate) -> Optional[Challenge]:
        m = cand.candidate
        j = self._first_below[m]
        return None if j is None else self._Challenge(j, self._separation(j, m))
