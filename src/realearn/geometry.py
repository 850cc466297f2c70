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
with that dict.  When both points' coordinates are affine, such as
blurred ones, the dict keeps each difference as its integer
``(c, w, l)`` and magnitude exponent, computed once, and the
orientation of three such points is one ``det2`` node built from those
integers, with no node per difference: it computes its triples in
closed form and reads no coordinate.
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
excludes zero, the search starts at the orientation's own estimate,
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
from .reals import (Measured, RealNum, _affine_det2, _affine_difference,
                    _affine_magnitude, _det2_estimate, _det2_terms, det2,
                    find_strict_witness, least_witness, op_at, sub)


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


# (apex index, point index) -> (x difference, y difference): two
# (c, w, l, e) tuples when both points' coordinates are affine, else nodes
Differences = dict[tuple[int, int],
                   tuple[Measured, Measured] | tuple[RealNum, RealNum]]


def orientation_real(p: Point, q: Point, r: Point,
                     differences: Optional[Differences] = None) -> RealNum:
    """The orientation of r relative to the line p -> q, as an
    arithmetic node.

    The differences ``q - p`` and ``r - p`` are looked up in
    ``differences``, keyed by ``(p.index, q.index)``, and built and
    stored there on a miss, so orientations about one apex that share
    the dict compute each difference once.  The key names the apex, so
    apexes never share a difference; it names points by index, so one
    dict serves the points of one list only.  Left out, a fresh dict is
    used.  A difference of two points with affine coordinates is stored
    as the ``(c, w, l, e)`` of each coordinate, and any other as its
    :func:`~realearn.reals.sub` nodes, which orientations sharing the
    dict share with their cached intervals.  When both differences are
    stored as integers, the node is the ``det2`` of their
    :func:`~realearn.reals._det2_terms`, with no node per difference;
    when only one is, that one is built again as fresh ``sub`` nodes,
    whose triples and magnitudes are computed in closed form.  Shared or
    not, the node is the ``det2`` of the same differences, so it has the
    same intervals.
    """
    if differences is None:
        differences = {}
    dq, dr = _difference(p, q, differences), _difference(p, r, differences)
    if type(dq[0]) is tuple:
        if type(dr[0]) is tuple:
            return _affine_det2(_det2_terms(dq[0], dr[1], dr[0], dq[1]))
        dq = (sub(q.x, p.x), sub(q.y, p.y))
    elif type(dr[0]) is tuple:
        dr = (sub(r.x, p.x), sub(r.y, p.y))
    return det2(dq[0], dr[1], dr[0], dq[1])


def _difference(p: Point, q: Point, differences: Differences):
    """``(q.x - p.x, q.y - p.y)``, built once per dict: when all four
    coordinates are affine, as the ``(c, w, l, e)`` of each difference
    with its magnitude exponent, else as :func:`~realearn.reals.sub`
    nodes."""
    key = (p.index, q.index)
    pair = differences.get(key)
    if pair is None:
        px, py, qx, qy = p.x._affine, p.y._affine, q.x._affine, q.y._affine
        if px is None or py is None or qx is None or qy is None:
            pair = (sub(q.x, p.x), sub(q.y, p.y))
        else:
            dx, dy = _affine_difference(qx, px), _affine_difference(qy, py)
            pair = ((*dx, _affine_magnitude(dx)), (*dy, _affine_magnitude(dy)))
        differences[key] = pair
    return pair


def decide_side(p: Point, q: Point, r: Point, k_max: int,
                differences: Optional[Differences] = None,
                start: int = 0) -> SideDecision:
    """Which side of the directed line p -> q does r lie on?

    The returned witness is the least precision k <= k_max at which the
    orientation's interval lies strictly above zero (Left, tested first)
    or strictly below it (Right).  That is :func:`op_at` against the
    constant zero, whose interval is [0, 0] at every k.  The search
    starts at precision ``start``, a guess such as the witness of a
    neighbouring decision; the guess decides which precisions are
    probed, never the answer.  The orientation is the node of
    :func:`orientation_real`, whose differences are taken from and
    stored in ``differences``.

    The orientation of three points with affine coordinates, such as
    blurred points, estimates its own witness from the
    :func:`~realearn.reals._det2_terms` it keeps (see
    :func:`~realearn.reals._det2_estimate`), and the search starts
    there instead.  From ``start`` 0 it first reads the interval at 0,
    and a decision witnessed there computes no estimate.  An orientation
    whose limit is zero, the orientation of collinear limits, has no
    estimate and no witness at any precision, so it raises
    :class:`DegenerateInput` without searching.
    """
    orient = orientation_real(p, q, r, differences)

    def excludes_zero(k: int) -> bool:
        lo, hi, _ = orient._at(k)
        return lo > 0 or hi < 0

    terms = orient._terms
    if terms is None:
        k = least_witness(excludes_zero, k_max, start)
    elif start == 0 and k_max >= 0 and excludes_zero(0):
        k = 0
    else:
        # None: the limit is zero, and every interval contains it
        hint = _det2_estimate(terms)
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
    audit's side decisions share one dict of differences, all about
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
        try:
            decision = decide_side(points[p], points[q], points[r], k_max,
                                   differences, last)
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
