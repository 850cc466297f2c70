"""Exact rational reference implementations and replay audits.

Everything here works on exact rational data (the known limits of the
reals, or plain rational coordinates) and serves as an
independent check on the interval-based machinery: closed-form
orientation signs, the true argmin, the full bounding condition, an
auditor that challenges exactly-false claims, and replay of recorded
runs along the decision tree of the least-element pass.

That tree is never built.  For ``r_0 .. r_n`` it has depth n: the node
at depth i compares the current candidate with i (the pair
``(candidate, i)``), an assumed answer keeps the candidate and a
strict one makes i the candidate.  A recorded path is therefore checked
by walking it once, in time linear in its length, for any n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .geometry import RationalPoint
from .least import Challenge, LeastCandidate
from .reals import RealNum, find_strict_witness
from .trace import TraceEvent


class TieDetected(ValueError):
    """Exact values are not distinct where distinctness is required."""


class PathMismatch(RuntimeError):
    """A recorded decision path is not a path of the decision tree."""


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
    if exact_orientation(points[a], points[c], points[b]) != -1:
        return False
    for d, point in enumerate(points):
        if d in (a, b, c):
            continue
        if exact_orientation(points[a], points[b], point) != 1:
            return False
        if exact_orientation(points[a], points[c], point) != -1:
            return False
    return True


def separation_from_gap(gap: Fraction) -> int:
    """Smallest k with 2**-k < gap; a separation precision for blurred
    reals whose limits differ by exactly ``gap``."""
    if gap <= 0:
        raise ValueError(f"gap must be positive, got {gap}")
    # 2**-k < p/q exactly when 2**k > q/p, that is when 2**k > q // p
    return (gap.denominator // gap.numerator).bit_length()


class OracleAuditor:
    """Challenges exactly-false claims of the current candidate.

    Knows the true rational limit of each of the reals ``r_0 .. r_n``
    (``true_values[i]`` is the limit of ``reals[i]``).  While the
    candidate is not the true argmin, the auditor picks the lowest
    index whose value lies strictly below the candidate's and
    challenges that claim at a separation precision: the least strict
    witness :func:`~realearn.reals.find_strict_witness` finds between
    the two reals, within a budget set by the gap of their limits.
    Once the true argmin is proposed it accepts.  For each index m the
    lowest index whose value lies below m's is found once, from the
    values in sorted order, so a challenge scans nothing.
    """

    def __init__(self, reals: Sequence[RealNum], true_values: Sequence[Fraction]):
        values = [Fraction(v) for v in true_values]
        if len(set(values)) != len(values):
            raise TieDetected("true values must be distinct")
        self._reals = reals
        self._values = values
        order = sorted(range(len(values)), key=values.__getitem__)
        # the lowest of the indices before m in order, or None
        self._first_below: List[Optional[int]] = [None] * len(values)
        for m, lowest in zip(order[1:], accumulate(order, min)):
            self._first_below[m] = lowest

    def _separation(self, j: int, m: int) -> int:
        gap = self._values[m] - self._values[j]
        budget = separation_from_gap(gap) + 64
        witness = find_strict_witness(self._reals[j], self._reals[m], budget)
        if witness is None:
            raise RuntimeError(
                f"reals {j} and {m} do not separate within precision {budget}")
        return witness

    def challenge(self, cand: LeastCandidate) -> Optional[Challenge]:
        m = cand.candidate
        j = self._first_below[m]
        return None if j is None else Challenge(j, self._separation(j, m))


class RunReplay:
    __slots__ = ("leaf_ranks", "leaf_candidates", "restarts", "progress_ok",
                 "unique_ok", "bound_ok")

    def __init__(self, leaf_ranks: List[int], leaf_candidates: List[int],
                 restarts: int, progress_ok: bool, unique_ok: bool,
                 bound_ok: bool) -> None:
        self.leaf_ranks = leaf_ranks
        self.leaf_candidates = leaf_candidates
        self.restarts = restarts
        self.progress_ok = progress_ok
        self.unique_ok = unique_ok
        self.bound_ok = bound_ok

    @property
    def ok(self) -> bool:
        return self.progress_ok and self.unique_ok and self.bound_ok


class ReplayVerdict:
    __slots__ = ("n", "runs")

    def __init__(self, n: int, runs: List[RunReplay]) -> None:
        self.n = n
        self.runs = runs

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)


def _extract_paths(events: Sequence[TraceEvent]) -> List[Tuple[List[dict], int]]:
    paths: List[Tuple[List[dict], int]] = []
    pending: List[dict] = []
    for event in events:
        if event.phase == "decide":
            pending.append(event.payload)
        elif event.phase in ("candidate", "select-A"):
            paths.append((pending, event.payload.get("candidate")))
            pending = []
    if pending:
        raise PathMismatch("trace ends with decisions but no candidate")
    return paths


def replay_paths(runs: Sequence[Sequence[TraceEvent]],
                 n: Optional[int] = None) -> ReplayVerdict:
    """Re-walk recorded runs along the decision tree over indices 1..n.

    Each candidate computation in a run maps to one root-to-leaf path.
    Verifies that every path is a path of the tree (each pair is
    ``(candidate, depth)`` and the final candidate agrees), that leaf
    ranks strictly increase across restarts, that no path repeats, and
    that the number of restarts stays below ``2**n``.  A leaf's rank
    reads the path's answers as binary digits, strict = 1, root first.
    """
    if not runs:
        raise ValueError("no runs to replay")
    first_paths = _extract_paths(runs[0])
    if not first_paths:
        raise PathMismatch("run contains no candidate computations")
    if n is None:
        n = len(first_paths[0][0])
    replays: List[RunReplay] = []
    for events in runs:
        paths = _extract_paths(events)
        restarts = sum(1 for e in events if e.phase == "restart")
        ranks: List[int] = []
        leaf_candidates: List[int] = []
        for decides, reported in paths:
            if len(decides) != n:
                raise PathMismatch(
                    f"path length {len(decides)} does not match n = {n}")
            candidate = rank = 0
            for depth, payload in enumerate(decides, 1):
                if payload.get("pair") != [candidate, depth]:
                    raise PathMismatch(
                        f"decision pair {payload.get('pair')} does not match "
                        f"tree node {(candidate, depth)}")
                strict = payload.get("decision") == "strict"
                rank = (rank << 1) | int(strict)
                if strict:
                    candidate = depth
            if candidate != reported:
                raise PathMismatch(
                    f"leaf candidate {candidate} does not match "
                    f"reported candidate {reported!r}")
            ranks.append(rank)
            leaf_candidates.append(reported)
        progress_ok = all(x < y for x, y in zip(ranks, ranks[1:]))
        unique_ok = len(set(ranks)) == len(ranks)
        bound_ok = restarts <= 2 ** n - 1 and restarts == len(ranks) - 1
        replays.append(RunReplay(ranks, leaf_candidates, restarts,
                                 progress_ok, unique_ok, bound_ok))
    return ReplayVerdict(n, replays)
