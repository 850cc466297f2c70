"""Plane geometry over exact reals.

Points carry exact-real coordinates.  Sidedness relative to a directed
line is decided through the orientation quantity

    orient(P, Q, R) = (x_Q - x_P) * (y_R - y_P) - (x_R - x_P) * (y_Q - y_P)

built as one :func:`~realearn.reals.det2` node over the four
differences of the points' coordinates, so it adds nothing to any
registry: R lies to the left of the line through P and Q when the
orientation is strictly positive, to the right when strictly negative.
The differences ``Q - P`` and ``R - P`` are the node's operands;
decisions about one apex P may share them through a dict that the
caller owns, and they are dropped with that dict.  The dict keeps each
coordinate difference on its own: when both of its coordinates are
affine, such as blurred ones, as its integer ``(c, w, l)`` and
magnitude exponent, computed once, else as a
:func:`~realearn.reals.sub` node.  The orientation of three points
whose four differences are all integers is computed from them, with no
node per difference: its triples are closed forms that read no
coordinate.  Because strict order of reals is only semi-decidable,
:func:`decide_side` searches for the least precision at which the
orientation's interval excludes zero, with the galloping search
:func:`~realearn.reals.least_witness`, and reports the side together
with that precision; exhausting the budget (as happens for collinear
triples) raises :class:`DegenerateInput`.  The search gallops from a
start precision that the caller may pass, such as the witness of its
previous decision: neighbouring decisions of one construction have
close witnesses, so fewer precisions are probed, and the least witness
is the same from any start.  The orientation of three blurred points
needs no start: the integers of its four differences prove a bound at
or above its witness (see :func:`~realearn.reals._det2_bound`).  A
bound of 0 decides the side with no node and no interval, any other
bound is where the search over one ``det2`` node starts, reading no
precision at or above it, and a triple whose limits are collinear
raises without a search.

A :class:`BoundingCertificate` records the witnesses of a bounding
angle, and :func:`verify_bounding` re-derives one from the points
alone, so an audit of a convex result loads no learner.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from ._record import _Record
from .errors import CertificateFailure, DegenerateInput
# perfbench/tracing.py wraps op_at on this module
from .reals import (RealNum, _affine_det2, _affine_difference,
                    _affine_magnitude, _affine_real, _det2_bound, det2,
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


# a coordinate difference: its (c, w, l, e) when both coordinates are
# affine, else a sub node
Difference = tuple[int, int, int, int] | RealNum
# (apex index, point index) -> (x difference, y difference)
Differences = dict[tuple[int, int], tuple[Difference, Difference]]


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
    used.  The node is the ``det2`` of the four coordinate differences
    (see :func:`_difference`): a ``sub`` node is read as it is, shared
    with its cached intervals by the orientations that share the dict,
    and a tuple through its affine real, which reads no coordinate.
    Either way it has the intervals of the ``det2`` of four ``sub``
    nodes.  :func:`decide_side` builds the same node, without calling
    this function, unless all four differences are tuples.
    """
    if differences is None:
        differences = {}
    return _orientation(_difference(p, q, differences),
                        _difference(p, r, differences))


def _difference(p: Point, q: Point, differences: Differences):
    """``(q.x - p.x, q.y - p.y)``, built once per dict.  Each coordinate
    difference is decided on its own: when both of its coordinates are
    affine it is the ``(c, w, l, e)`` of the difference with its
    magnitude exponent, else a :func:`~realearn.reals.sub` node."""
    key = (p.index, q.index)
    pair = differences.get(key)
    if pair is None:
        pair = differences[key] = (_coordinate_difference(q.x, p.x),
                                   _coordinate_difference(q.y, p.y))
    return pair


def _coordinate_difference(a: RealNum, b: RealNum) -> Difference:
    if a._affine is None or b._affine is None:
        return sub(a, b)
    affine = _affine_difference(a._affine, b._affine)
    return (*affine, _affine_magnitude(affine))


def _orientation(dq, dr) -> RealNum:
    """The generic ``det2`` of the differences ``dq`` of ``q - p`` and
    ``dr`` of ``r - p``."""
    return det2(_node(dq[0]), _node(dr[1]), _node(dr[0]), _node(dq[1]))


def _node(difference: Difference) -> RealNum:
    """A coordinate difference as a node: a tuple through its affine
    real, which reads no coordinate and takes its magnitude exponent
    from the tuple's ``e``, so :func:`~realearn.reals.det2` does not
    read its index 0."""
    if type(difference) is tuple:
        return _affine_real(partial(RealNum, None), difference[:3],
                            difference[3])
    return difference


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
    probed, never the answer.  The two differences are read once from
    ``differences``, and built and stored there on a miss, as for
    :func:`orientation_real`.  Unless all four coordinate differences
    are tuples, the search runs over the node that
    :func:`orientation_real` builds from them, built here without
    calling it.

    Three points with affine coordinates, such as blurred points, have
    four tuple differences, whose
    :func:`~realearn.reals._det2_bound` gives the side, as the sign of
    the orientation's limit, and a precision at which the integers
    prove that the orientation's interval excludes zero, so the witness
    is at most that bound.  A bound of 0 within ``k_max`` returns the
    side at 0 with no node and no interval.  Otherwise one
    :func:`~realearn.reals._affine_det2` node of the tuples' terms is
    searched from the bound, or from ``k_max`` if the bound is above
    it, and the search takes the orientation to exclude zero at every
    precision from the bound on without reading it there; ``start`` is
    not used.  An orientation whose limit is zero, the orientation of
    collinear limits, has no witness at any precision, so it raises
    :class:`DegenerateInput` without searching.
    """
    if differences is None:
        differences = {}
    dq, dr = _difference(p, q, differences), _difference(p, r, differences)
    (xq, yq), (xr, yr) = dq, dr
    if tuple is type(xq) is type(yq) is type(xr) is type(yr):
        terms, lead, bound = _det2_bound(xq, yr, xr, yq, k_max)
        if not lead:
            # the limit is zero, and every interval contains it
            k = None
        elif bound == 0 <= k_max:
            return Left(0) if lead > 0 else Right(0)
        else:
            orient = _affine_det2(terms)
            k = least_witness(
                lambda k: k >= bound or _excludes_zero(orient, k), k_max,
                min(bound, k_max))
        left = lead > 0
    else:
        orient = _orientation(dq, dr)
        k = least_witness(partial(_excludes_zero, orient), k_max, start)
        left = k is not None and orient._at(k)[0] > 0
    if k is not None:
        return Left(k) if left else Right(k)
    raise DegenerateInput(
        f"no side witness for points ({p.index}, {q.index}, {r.index}) "
        f"within precision {k_max}"
    )


def _excludes_zero(orient: RealNum, k: int) -> bool:
    lo, hi, _ = orient._at(k)
    return lo > 0 or hi < 0


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
    previous decision, or, when the points are blurred, at the bound
    that the integers of the orientation prove (see
    :func:`decide_side`), so a clause over collinear limits fails
    without a search.  Intended as a
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
