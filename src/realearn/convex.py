"""Finding a convex angle that bounds a finite point set.

Given points ``P_0 .. P_n`` in general position, the algorithm picks an
apex A and two rays A->B and A->C such that every other point lies
strictly left of A->B and strictly right of A->C.  The apex is the
least-element guess for the y coordinates under the current knowledge
state, so the claim "A is lowest" is never proved: it is assumed per
comparison and refuted on demand.  The knowledge state is over the
points' own y list, so its index i is point i, wherever the reals
were registered.

The scan keeps the invariant that C lies strictly left of A->B and B
strictly right of A->C, so the angle from A->B counterclockwise to A->C
is smaller than pi, and every certified point lies strictly inside it.
Each remaining point d is classified by its sides relative to the two
rays:

* left of A->B and right of A->C: d is inside the angle, record both
  witnesses;
* on the wrong side of exactly one ray: d lies beyond that ray but
  less than pi from the other one, so d replaces that ray's point.  The
  new angle is still smaller than pi and contains the old one, so the
  replaced point and every certified point are re-witnessed against the
  new ray, and each such re-scan lands on the inner side.  Right of both
  rays replaces B, left of both replaces C: one routine serves both;
* right of A->B but left of A->C: d is behind the apex.

In the last case the triple (d, B, C) forms a left-turning cycle
around A, so A lies strictly inside a triangle of other points and one
of them must be strictly below A.  That point refutes one assumed
y comparison; the knowledge state is extended with the blamed
counterexample and the whole construction restarts.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Optional, Sequence, Tuple

from ._record import _Record
from .errors import CertificateFailure, DegenerateInput, RestartBudgetExceeded
from .geometry import (
    Differences,
    Left,
    Point,
    Right,
    SideDecision,
    decide_side,
    orientation_real,
    three_points,
)
from .knowledge import KnowledgeState, blame, empty_state, extend
from .least import least_candidate
from .trace import TraceLog, emit_with_state


# Side 0 is the ray A->B, side 1 the ray A->C; a point is inside the
# angle when it lies on the inner side of both.
_INNER = (Left, Right)
_REPLACE_CASE = ("new-b", "new-c")


class TooFewPoints(ValueError):
    """The construction needs at least three points."""


class BoundingCertificate(_Record):
    """Witnessed bounding condition for apex a and rays a->b, a->c.

    ``left[d]`` witnesses P_d strictly left of a->b and ``right[d]``
    strictly right of a->c, for every point index d outside
    ``{a, b, c}``.  The mutual pair: ``c_left`` witnesses P_c left of
    a->b, ``b_right`` witnesses P_b right of a->c.
    """

    __slots__ = ("_a", "_b", "_c", "_left", "_right", "_c_left", "_b_right")
    __hash__ = None

    def __init__(self, a: int, b: int, c: int, left: Dict[int, int],
                 right: Dict[int, int], c_left: int, b_right: int) -> None:
        self._a = a
        self._b = b
        self._c = c
        self._left = left
        self._right = right
        self._c_left = c_left
        self._b_right = b_right


class ConvexAngleResult:
    """The apex, the rays, their certificate, the final state, the
    restart count and, read-only, the run's ``trace``: the events of
    its log, built on the first read."""

    __slots__ = ("a", "b", "c", "certificate", "state", "restarts", "_log")

    def __init__(self, a: int, b: int, c: int,
                 certificate: BoundingCertificate, state: KnowledgeState,
                 restarts: int, log: TraceLog) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.certificate = certificate
        self.state = state
        self.restarts = restarts
        self._log = log

    trace = property(attrgetter("_log.events"))


def _check_point_layout(points: Sequence[Point]) -> None:
    for position, point in enumerate(points):
        if point.index != position:
            raise ValueError(
                f"point at position {position} carries index {point.index}")


def convex_angle(points: Sequence[Point], k_max: int = 256,
                 max_restarts: Optional[int] = None,
                 trace: Optional[TraceLog] = None) -> ConvexAngleResult:
    """Construct a witnessed bounding angle for ``points``.

    Points must be listed in index order, ``points[i].index == i``.
    The knowledge state is over the y coordinates ``[p.y for p in
    points]``, so its entries about y order use point indices directly.
    """
    if len(points) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(points)}")
    _check_point_layout(points)
    n = len(points) - 1
    budget = max_restarts if max_restarts is not None else 2 ** n
    log = trace if trace is not None else TraceLog()
    state = empty_state([p.y for p in points])
    restarts = 0
    last = 0

    def side(p: int, q: int, r: int, stage: str,
             decision: Optional[SideDecision] = None) -> SideDecision:
        """Decide P_r's side of P_p->P_q, unless ``decision`` repeats an
        earlier answer, and record it as a ``side`` event.  The witness
        search starts at the witness of the last decision made."""
        nonlocal last
        if decision is None:
            pp, pq, pr = points[p], points[q], points[r]
            decision = decide_side(pp, pq, pr, k_max,
                                   orientation_real(pp, pq, pr, differences),
                                   last)
            last = decision.witness
        log.emit("side", stage=stage, line=[p, q], point=r,
                 side="left" if isinstance(decision, Left) else "right",
                 witness=decision.witness)
        return decision

    while True:
        cand = least_candidate(state, n, log)
        a = cand.candidate
        emit_with_state(log, "select-A", state, candidate=a)
        # the attempt's difference nodes about apex a, dropped with it
        differences: Differences = {}

        rest = [i for i in range(n + 1) if i != a]
        ray = [rest[0], rest[1]]
        first = side(a, ray[1], ray[0], "init")
        swapped = isinstance(first, Left)
        if swapped:
            ray.reverse()
        # mutual[s]: the other ray's point on the inner side of ray s.
        # One of the two queries is the init query again: (a, c, b)
        # unswapped, (a, b, c) swapped.
        b_right = side(a, ray[1], ray[0], "mutual", None if swapped else first)
        mutual = [side(a, ray[0], ray[1], "mutual", first if swapped else None),
                  b_right]
        assert all(isinstance(mutual[s], _INNER[s]) for s in (0, 1)), \
            "rays not ordered after swap"
        log.emit("init-BC", b=ray[0], c=ray[1], swapped=swapped,
                 b_right_witness=mutual[1].witness,
                 c_left_witness=mutual[0].witness)

        # witnesses[s][d]: P_d on the inner side of ray s
        witnesses: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
        for d in rest[2:]:
            found = [side(a, ray[s], d, "scan") for s in (0, 1)]
            wrong = [s for s in (0, 1) if not isinstance(found[s], _INNER[s])]
            if not wrong:
                log.emit("scan", d=d, case="keep")
                for s in (0, 1):
                    witnesses[s][d] = found[s].witness
                continue
            if len(wrong) == 2:
                # d is behind the apex: right of A->B yet left of A->C.
                log.emit("scan", d=d, case="blocked")
                cycle = [d, ray[0], ray[1]]
                which, w = three_points(points[a], *(points[i] for i in cycle),
                                        k_max)
                x = cycle[which]
                log.emit("three-points", a=a, cycle=cycle, below=x, witness=w)
                break
            # d lies outside ray s only, so it becomes ray s.  The angle
            # stays below pi, so the replaced point and every certified
            # point lie on the inner side of the new ray.
            s = wrong[0]
            o = 1 - s
            log.emit("scan", d=d, case=_REPLACE_CASE[s])
            old = ray[s]
            ray[s] = d
            moved = side(a, d, old, "rescan")
            assert isinstance(moved, _INNER[s]), "replaced ray not inside new ray"
            witnesses[s][old] = moved.witness
            witnesses[o][old] = mutual[o].witness
            mutual[o] = found[o]
            mutual[s] = side(a, d, ray[o], "mutual")
            assert isinstance(mutual[s], _INNER[s]), "other ray not inside new ray"
            for prior in sorted(witnesses[s]):
                if prior != old:
                    redo = side(a, d, prior, "rescan")
                    assert isinstance(redo, _INNER[s]), "point not inside new ray"
                    witnesses[s][prior] = redo.witness
        else:  # no point blocked the scan: accept
            b, c = ray
            expected = set(range(n + 1)) - {a, b, c}
            assert set(witnesses[0]) == expected == set(witnesses[1]), \
                "certificate does not cover all points"
            certificate = BoundingCertificate(
                a=a, b=b, c=c, left=dict(sorted(witnesses[0].items())),
                right=dict(sorted(witnesses[1].items())),
                c_left=mutual[0].witness, b_right=mutual[1].witness)
            emit_with_state(log, "accept", state, a=a, b=b, c=c,
                            restarts=restarts)
            return ConvexAngleResult(a, b, c, certificate, state,
                                     restarts, log)

        pair, witness = blame(cand.evidences[x], w)
        log.emit("blame", claim=[a, x], pair=list(pair), witness=witness)
        state = extend(state, pair[0], pair[1], witness)
        emit_with_state(log, "extend", state, pair=list(pair),
                        witness=witness)
        restarts += 1
        if restarts > budget:
            raise RestartBudgetExceeded(restarts, budget)
        log.emit("restart", count=restarts)


def verify_bounding(points: Sequence[Point], a: int, b: int, c: int,
                    k_max: int = 256) -> BoundingCertificate:
    """Independently re-derive the bounding certificate for (a, b, c).

    Points must be listed in index order, as for :func:`convex_angle`.
    Runs fresh side decisions for every clause and raises
    :class:`CertificateFailure` on the first clause whose side comes
    out wrong or cannot be witnessed within the budget.  The audit's
    orientations share one dict of difference nodes, all about apex
    ``a``, and nothing from the construction.  Each decision's witness
    search starts at the witness of the audit's previous decision.
    Intended as a post-hoc audit of :func:`convex_angle` output.
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

    c_left = audit(a, b, c, True, "mutual pair")
    b_right = audit(a, c, b, False, "mutual pair")
    left: Dict[int, int] = {}
    right: Dict[int, int] = {}
    for d in sorted(set(indices) - {a, b, c}):
        left[d] = audit(a, b, d, True, f"bounding clause for point {d}")
        right[d] = audit(a, c, d, False, f"bounding clause for point {d}")
    return BoundingCertificate(a=a, b=b, c=c, left=left, right=right,
                               c_left=c_left, b_right=b_right)
