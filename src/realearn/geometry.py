"""Plane geometry over exact reals.

Points carry exact-real coordinates.  Sidedness relative to a directed
line is decided through the orientation quantity

    orient(P, Q, R) = (x_Q - x_P) * (y_R - y_P) - (x_R - x_P) * (y_Q - y_P)

built as one :func:`~realearn.reals.det2` node over four
:func:`~realearn.reals.sub` nodes, the differences of the points'
coordinates, so it adds nothing to any registry: R lies to the left
of the line through P and Q when the orientation is strictly positive,
to the right when strictly negative.  The differences ``Q - P`` and
``R - P`` are the node's operands; decisions about one apex P may
share them through a dict that the caller owns, and they are dropped
with that dict.  A difference of two blurred coordinates is an affine
node whose intervals are computed in closed form, and a ``det2`` of
four affine nodes computes their triples and magnitudes from them, so
the orientation of three blurred points reads no coordinate and no
difference.
Because strict order of reals is only semi-decidable,
:func:`decide_side` searches for the least precision at which the
orientation's interval excludes zero, with the galloping search
:func:`~realearn.reals.least_witness`, and reports the side together
with that precision; exhausting the budget (as happens for collinear
triples) raises :class:`DegenerateInput`.  The search gallops from a
start precision that the caller may pass, such as the witness of its
previous decision: neighbouring decisions of one construction have
close witnesses, so fewer precisions are probed, and the least witness
is the same from any start.  The orientation of three blurred points
says where its witness is: unless its interval at the start 0 already
excludes zero, the search starts at the ``det2`` node's own estimate,
within one level of the witness on almost every decision, and a
triple whose limits are collinear raises without a search.

A :class:`BoundingCertificate` records the witnesses of a bounding
angle, and :func:`verify_bounding` re-derives one from the points
alone, so an audit of a convex result loads no learner.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ._record import _Record
from .errors import CertificateFailure, DegenerateInput
# perfbench/tracing.py wraps op_at on this module
from .reals import RealNum, det2, find_strict_witness, least_witness, op_at, sub


class Point(_Record):
    """A plane point with exact real coordinates."""

    __slots__ = ("_index", "_x", "_y")


class RationalPoint(_Record):
    """A plane point with exact rational coordinates."""

    __slots__ = ("_x", "_y")


class Left(_Record):
    """R strictly left of P -> Q, first seen at precision ``witness``."""

    __slots__ = ("_witness",)


class Right(_Record):
    """R strictly right of P -> Q, first seen at precision ``witness``."""

    __slots__ = ("_witness",)


SideDecision = Left | Right


class NoWitnessFound(DegenerateInput):
    """A dovetailed witness search exhausted its precision budget."""


# (apex index, point index) -> (x difference, y difference) nodes
Differences = dict[tuple[int, int], tuple[RealNum, RealNum]]


def orientation_real(p: Point, q: Point, r: Point,
                     differences: Optional[Differences] = None) -> RealNum:
    """The orientation of r relative to the line p -> q, as an
    arithmetic node.

    The difference nodes ``q - p`` and ``r - p`` are looked up in
    ``differences``, keyed by ``(p.index, q.index)``, and built and
    stored there on a miss, so orientations about one apex that share
    the dict share those nodes and their cached intervals.  The key
    names the apex, so apexes never share a node; it names points by
    index, so one dict serves the points of one list only.  Left out,
    a fresh dict is used.  Shared or not, the tree has the same shape,
    so every node has the same intervals.
    """
    if differences is None:
        differences = {}
    dx_q, dy_q = _difference(p, q, differences)
    dx_r, dy_r = _difference(p, r, differences)
    return det2(dx_q, dy_r, dx_r, dy_q)


def _difference(p: Point, q: Point,
                differences: Differences) -> Tuple[RealNum, RealNum]:
    """The nodes ``(q.x - p.x, q.y - p.y)``, built once per dict."""
    key = (p.index, q.index)
    pair = differences.get(key)
    if pair is None:
        pair = differences[key] = (sub(q.x, p.x), sub(q.y, p.y))
    return pair


def decide_side(p: Point, q: Point, r: Point, k_max: int,
                orientation: Optional[RealNum] = None,
                start: int = 0) -> SideDecision:
    """Which side of the directed line p -> q does r lie on?

    The returned witness is the least precision k <= k_max at which the
    orientation's interval lies strictly above zero (Left, tested first)
    or strictly below it (Right).  That is :func:`op_at` against the
    constant zero, whose interval is [0, 0] at every k.  The search
    starts at precision ``start``, a guess such as the witness of a
    neighbouring decision; the guess decides which precisions are
    probed, never the answer.

    An orientation of affine reals, such as one of blurred points,
    estimates its own witness from its integer coefficients (see
    :func:`~realearn.reals._affine_det2`), and the search starts there
    instead.  From ``start`` 0 it first reads the interval at 0, and a
    decision witnessed there computes no estimate.  An orientation
    whose limit is zero, the orientation of collinear limits, has no
    estimate and no witness at any precision, so it raises
    :class:`DegenerateInput` without searching.
    """
    orient = orientation if orientation is not None else orientation_real(p, q, r)

    def excludes_zero(k: int) -> bool:
        lo, hi, _ = orient._at(k)
        return lo > 0 or hi < 0

    estimate = orient._estimate
    if estimate is None:
        k = least_witness(excludes_zero, k_max, start)
    elif start == 0 and k_max >= 0 and excludes_zero(0):
        k = 0
    else:
        # None: the limit is zero, and every interval contains it
        hint = estimate()
        k = None if hint is None else least_witness(excludes_zero, k_max, hint)
    if k is not None:
        return Left(k) if orient._at(k)[0] > 0 else Right(k)
    raise DegenerateInput(
        f"no side witness for points ({p.index}, {q.index}, {r.index}) "
        f"within precision {k_max}"
    )


def three_points(a: Point, q0: Point, q1: Point, q2: Point,
                 k_max: int) -> Tuple[int, int]:
    """Find some q_i strictly below a, given a left-turning cycle.

    Precondition: each q_{i+1} (cyclically) lies left of the line from
    a through q_i, which places a strictly inside the triangle
    q0 q1 q2, so at least one vertex is strictly below a.  The witness
    is the least precision at which some vertex is observed below a,
    and ``i`` is the first such vertex at that precision: the result
    ``(i, witness)`` is what dovetailing precision (outer) against the
    three candidates (inner) would find first.  As :func:`op_at` is
    monotone in the precision, that is the first i whose own least
    witness, :func:`~realearn.reals.find_strict_witness` of q_i.y below
    a.y, is the least of the three: one division each for blurred ys.
    """
    found = [(k, i) for i, q in enumerate((q0, q1, q2))
             if (k := find_strict_witness(q.y, a.y, k_max)) is not None]
    if found:
        k, i = min(found)
        return i, k
    raise NoWitnessFound(
        f"no point of ({q0.index}, {q1.index}, {q2.index}) observed below "
        f"{a.index} within precision {k_max}"
    )


class BoundingCertificate(_Record):
    """Witnessed bounding condition for apex a and rays a->b, a->c.

    ``left[d]`` witnesses P_d strictly left of a->b and ``right[d]``
    strictly right of a->c, for every point index d outside
    ``{a, b, c}``.  The mutual pair: ``c_left`` witnesses P_c left of
    a->b, ``b_right`` witnesses P_b right of a->c.
    """

    __slots__ = ("_a", "_b", "_c", "_left", "_right", "_c_left", "_b_right")
    __hash__ = None


def _check_point_layout(points: Sequence[Point]) -> None:
    for position, point in enumerate(points):
        if point.index != position:
            raise ValueError(
                f"point at position {position} carries index {point.index}")


def verify_bounding(points: Sequence[Point], a: int, b: int, c: int,
                    k_max: int = 256) -> BoundingCertificate:
    """Independently re-derive the bounding certificate for (a, b, c).

    Points must be listed in index order, as for
    :func:`~realearn.convex.convex_angle`.  Runs fresh side decisions
    for every clause but ``b_right``, the mirror of ``c_left``, and
    raises :class:`CertificateFailure` on the first clause whose side
    comes out wrong or cannot be witnessed within the budget.  The
    audit's orientations share one dict of difference nodes, all about
    apex ``a``, and nothing from the construction.
    Each decision's witness search starts at the witness of the audit's
    previous decision, or, when the points are blurred, at the
    orientation's own estimate (see :func:`decide_side`), so a clause
    over collinear limits fails without a search.  Intended as a
    post-hoc audit of
    :func:`~realearn.convex.convex_angle` output.
    """
    _check_point_layout(points)
    indices = range(len(points))
    for name, value in (("a", a), ("b", b), ("c", c)):
        if value not in indices:
            raise CertificateFailure(f"{name} = {value} is not a point index")
    if len({a, b, c}) != 3:
        raise CertificateFailure(f"apex and ray indices overlap: {(a, b, c)}")

    differences: Differences = {}
    last = 0

    def audit(p: int, q: int, r: int, want_left: bool, clause: str) -> int:
        nonlocal last
        pp, pq, pr = points[p], points[q], points[r]
        try:
            decision = decide_side(pp, pq, pr, k_max,
                                   orientation_real(pp, pq, pr, differences),
                                   last)
        except DegenerateInput as exc:
            raise CertificateFailure(f"{clause}: {exc}") from exc
        last = decision.witness
        if want_left != isinstance(decision, Left):
            side = "left" if isinstance(decision, Left) else "right"
            raise CertificateFailure(
                f"{clause}: point {r} is {side} of line {p}->{q}")
        return decision.witness

    # orientation(a, c, b) = -orientation(a, b, c): one witness serves both
    c_left = b_right = audit(a, b, c, True, "mutual pair")
    left: Dict[int, int] = {}
    right: Dict[int, int] = {}
    for d in sorted(set(indices) - {a, b, c}):
        left[d] = audit(a, b, d, True, f"bounding clause for point {d}")
        right[d] = audit(a, c, d, False, f"bounding clause for point {d}")
    return BoundingCertificate(a=a, b=b, c=c, left=left, right=right,
                               c_left=c_left, b_right=b_right)
