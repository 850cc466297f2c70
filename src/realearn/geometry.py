"""Plane geometry over exact reals.

Points carry exact-real coordinates.  Sidedness relative to a directed
line is decided through the orientation quantity

    orient(P, Q, R) = (x_Q - x_P) * (y_R - y_P) - (x_R - x_P) * (y_Q - y_P)

built as a tree of arithmetic nodes (:func:`~realearn.reals.sub` and
:func:`~realearn.reals.mul`) over the points' coordinates, so it adds
nothing to any registry: R lies to the left of the line through P and
Q when the orientation is strictly positive, to the right when
strictly negative.  The differences ``Q - P`` and ``R - P`` are the
tree's leaves; decisions about one apex P may share them through a
dict that the caller owns, and they are dropped with that dict.
Because strict order of reals is only semi-decidable,
:func:`decide_side` searches for the least precision at which the
orientation's interval excludes zero, with the galloping search
:func:`~realearn.reals.least_witness`, and reports the side together
with that precision; exhausting the budget (as happens for collinear
triples) raises :class:`DegenerateInput`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from ._record import _Record
from .errors import DegenerateInput
# perfbench/tracing.py wraps find_strict_witness on this module
from .reals import RealNum, find_strict_witness, least_witness, mul, op_at, sub


class Point(_Record):
    """A plane point with exact real coordinates."""

    __slots__ = ("_index", "_x", "_y")

    def __init__(self, index: int, x: RealNum, y: RealNum) -> None:
        self._index = index
        self._x = x
        self._y = y


class RationalPoint(_Record):
    """A plane point with exact rational coordinates."""

    __slots__ = ("_x", "_y")

    def __init__(self, x: Fraction, y: Fraction) -> None:
        self._x = x
        self._y = y


class Left(_Record):
    """R strictly left of P -> Q, first seen at precision ``witness``."""

    __slots__ = ("_witness",)

    def __init__(self, witness: int) -> None:
        self._witness = witness


class Right(_Record):
    """R strictly right of P -> Q, first seen at precision ``witness``."""

    __slots__ = ("_witness",)

    def __init__(self, witness: int) -> None:
        self._witness = witness


SideDecision = Union[Left, Right]


class NoWitnessFound(DegenerateInput):
    """A dovetailed witness search exhausted its precision budget."""


# (apex index, point index) -> (x difference, y difference) nodes
Differences = Dict[Tuple[int, int], Tuple[RealNum, RealNum]]


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
    return sub(mul(dx_q, dy_r), mul(dx_r, dy_q))


def _difference(p: Point, q: Point,
                differences: Differences) -> Tuple[RealNum, RealNum]:
    """The nodes ``(q.x - p.x, q.y - p.y)``, built once per dict."""
    key = (p.index, q.index)
    pair = differences.get(key)
    if pair is None:
        pair = differences[key] = (sub(q.x, p.x), sub(q.y, p.y))
    return pair


def decide_side(p: Point, q: Point, r: Point, k_max: int,
                orientation: Optional[RealNum] = None) -> SideDecision:
    """Which side of the directed line p -> q does r lie on?

    The returned witness is the least precision k <= k_max at which the
    orientation's interval lies strictly above zero (Left, tested first)
    or strictly below it (Right).  That is :func:`op_at` against the
    constant zero, whose interval is [0, 0] at every k.
    """
    orient = orientation if orientation is not None else orientation_real(p, q, r)

    def sign(k: int) -> int:
        lo, hi, _ = orient._at(k)
        return (lo > 0) - (hi < 0)

    k = least_witness(lambda k: sign(k) != 0, k_max)
    if k is not None:
        return Left(k) if sign(k) > 0 else Right(k)
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
    three candidates (inner) would find first.
    """
    qs = (q0, q1, q2)
    k = least_witness(lambda k: any(op_at(q.y, a.y, k) for q in qs), k_max)
    if k is not None:
        return next((i, k) for i, q in enumerate(qs) if op_at(q.y, a.y, k))
    raise NoWitnessFound(
        f"no point of ({q0.index}, {q1.index}, {q2.index}) observed below "
        f"{a.index} within precision {k_max}"
    )
