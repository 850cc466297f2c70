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

* left of A->B and right of A->C: d is inside the angle;
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
y comparison.  The scan is an attempt of :func:`~realearn.least.learn`,
the learning loop it shares with the least-element learner: the attempt
returns the blamed counterexample, and the loop extends the knowledge
state with it and restarts the whole construction.  An attempt decides
each pair of points once: orientation(A, R, Q) is the exact negation of
orientation(A, Q, R), so a reversed query keeps the witness.

An attempt keeps its side decisions in one table of ints, one entry
per unordered pair {q, r}, keyed ``min * (n + 1) + max``.  The entry is
a code: the witness w when the pair's side, seen from (min, max), is
left, and ``~w`` when it is right, so a code >= 0 reads as left and a
reversed query flips the code with ``~``.  The attempt reads its sides
as these codes and builds no :class:`~realearn.geometry.Left` or
:class:`~realearn.geometry.Right` for them.  The only other thing it
keeps is the list of points found inside.  At accept the certificate,
:class:`BoundingCertificate`, is read from that table, each witness
decoded from its code: each is the witness of a ``side`` event the
attempt recorded about that pair, against the final rays.  The
certificate and its independent audit :func:`verify_bounding` live in
:mod:`~realearn.geometry` and are re-exported here.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Optional, Sequence, Union

from ._record import _Record
from .geometry import (
    BoundingCertificate,  # re-exported
    Differences,
    Left,
    Point,
    _check_point_layout,
    decide_side,
    orientation_real,  # perfbench/tracing.py wraps it here; unused
    three_points,
    verify_bounding,  # re-exported
)
# perfbench/tracing.py wraps extend and least_candidate on this module;
# only learn calls them
from .knowledge import Falsified, KnowledgeState, blame, empty_state, extend
from .least import LeastCandidate, learn, least_candidate
from .trace import TraceLog, _event_line, _state_line


# a scanned point's case, by the sides it lies on the wrong side of
_SCAN_CASE = {(): "keep", (0,): "new-b", (1,): "new-c", (0, 1): "blocked"}


class TooFewPoints(ValueError):
    """The construction needs at least three points."""


class ConvexAngleResult(_Record):
    """The apex, the rays, their certificate, the final state, the
    restart count, the run's log and its ``trace``: the events parsed
    from the log's lines, anew on every read."""

    __slots__ = ("_a", "_b", "_c", "_certificate", "_state", "_restarts",
                 "_log")
    __hash__ = None

    trace = property(attrgetter("_log.events"))


def convex_angle(points: Sequence[Point], k_max: int = 256,
                 max_restarts: Optional[int] = None,
                 trace: Optional[TraceLog] = None) -> ConvexAngleResult:
    """Construct a witnessed bounding angle for ``points``.

    Points must be listed in index order, ``points[i].index == i``.
    The knowledge state is over the y coordinates ``[p.y for p in
    points]``, so its entries about y order use point indices directly.
    Each scan is an attempt of :func:`~realearn.least.learn`; more than
    ``max_restarts`` restarts (default ``2 ** n``) raise
    :class:`~realearn.errors.RestartBudgetExceeded`.
    """
    if len(points) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(points)}")
    _check_point_layout(points)
    n = len(points) - 1
    log = trace if trace is not None else TraceLog()
    last = 0

    def attempt(state: KnowledgeState, cand: LeastCandidate,
                restarts: int) -> Union[ConvexAngleResult, Falsified]:
        a = cand.candidate
        log.defer(_state_line, "select-A", state, ("candidate",), a)
        # the attempt's differences and side codes, dropped with it
        differences: Differences = {}
        decided: Dict[int, int] = {}

        def side(q: int, r: int, stage: str) -> int:
            """Record P_r's side of A->P_q as a ``side`` event, deciding
            it unless the attempt decided the pair before, and return its
            code: the witness w when P_r is left, ``~w`` when right.  The
            pair {q, r} is stored once, keyed ``min * (n + 1) + max``,
            with its code seen from (min, max): reversed, the side flips
            and the witness stays, so the code flips with ``~``.  The
            search is given the witness of the last side recorded as its
            start."""
            nonlocal last
            flip = q > r
            key = r * (n + 1) + q if flip else q * (n + 1) + r
            code = decided.get(key)
            if code is None:
                decision = decide_side(points[a], points[q], points[r], k_max,
                                       differences, last)
                code = decision.witness
                if type(decision) is not Left:
                    code = ~code
                decided[key] = ~code if flip else code
            elif flip:
                code = ~code
            last = code if code >= 0 else ~code
            log.defer(_event_line, "side",
                      ("stage", "line", "point", "side", "witness"), stage,
                      (a, q), r, "left" if code >= 0 else "right", last)
            return code

        rest = [i for i in range(n + 1) if i != a]
        ray = [rest[0], rest[1]]
        swapped = side(ray[1], ray[0], "init") >= 0
        if swapped:
            ray.reverse()
        # the mutual pair is the init pair, both ways round
        b_right = side(ray[1], ray[0], "mutual")
        c_left = side(ray[0], ray[1], "mutual")
        assert c_left >= 0 > b_right, "rays not ordered after swap"
        log.defer(_event_line, "init-BC",
                  ("b", "c", "swapped", "b_right_witness", "c_left_witness"),
                  ray[0], ray[1], swapped, ~b_right, c_left)

        # the points certified inside the angle; their witnesses are in
        # decided, against whichever rays the scan ends with.  Side 0 is
        # the ray A->B, side 1 the ray A->C; a point is inside the angle
        # when it lies on the inner side of both: left of A->B, a code
        # >= 0, and right of A->C, a code < 0
        inside = []
        for d in rest[2:]:
            wrong = [s for s in (0, 1)
                     if (side(ray[s], d, "scan") >= 0) == s]
            log.defer(_event_line, "scan", ("d", "case"), d,
                      _SCAN_CASE[tuple(wrong)])
            if not wrong:
                inside.append(d)
                continue
            if len(wrong) == 2:
                # d is behind the apex: right of A->B yet left of A->C.
                cycle = [d, ray[0], ray[1]]
                which, w = three_points(points[a], *(points[i] for i in cycle),
                                        k_max)
                x = cycle[which]
                log.defer(_event_line, "three-points",
                          ("a", "cycle", "below", "witness"), a, cycle, x, w)
                pair, witness = blame(cand.evidences[x], w)
                log.defer(_event_line, "blame", ("claim", "pair", "witness"),
                          (a, x), pair, witness)
                return Falsified(pair, witness)
            # d lies outside ray s only, so it becomes ray s.  The angle
            # stays below pi, so the replaced point and every certified
            # point lie on the inner side of the new ray.
            s = wrong[0]
            old = ray[s]
            ray[s] = d
            moved = side(d, old, "rescan")
            assert (moved >= 0) != s, "replaced ray not inside new ray"
            other = side(d, ray[1 - s], "mutual")
            assert (other >= 0) != s, "other ray not inside new ray"
            for prior in sorted(inside):
                redo = side(d, prior, "rescan")
                assert (redo >= 0) != s, "point not inside new ray"
            inside.append(old)

        # no point blocked the scan: accept, with the certificate read
        # from the side codes the attempt recorded, decoded
        b, c = ray
        inside.sort()
        assert set(inside) == set(range(n + 1)) - {a, b, c}, \
            "certificate does not cover all points"

        def witness(q: int, r: int) -> int:
            code = decided[min(q, r) * (n + 1) + max(q, r)]
            return code if code >= 0 else ~code

        certificate = BoundingCertificate(
            a=a, b=b, c=c, left={d: witness(b, d) for d in inside},
            right={d: witness(c, d) for d in inside},
            c_left=witness(b, c), b_right=witness(c, b))
        log.defer(_state_line, "accept", state, ("a", "b", "c", "restarts"),
                  a, b, c, restarts)
        return ConvexAngleResult(a, b, c, certificate, state, restarts, log)

    return learn(empty_state([p.y for p in points]), n, log, max_restarts,
                 attempt)
