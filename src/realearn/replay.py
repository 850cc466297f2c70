"""Replay of recorded runs along the decision tree of the least-element
pass.

That tree is never built.  For ``r_0 .. r_n`` it has depth n: the node
at depth i compares the current candidate with i (the pair
``(candidate, i)``), an assumed answer keeps the candidate and a
strict one makes i the candidate.  A recorded path is therefore checked
by walking it once, in time linear in its length, for any n.  The
replay reads nothing but the recorded events, so ``realearn tree``
loads no reals and no learner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .errors import PathMismatch

if TYPE_CHECKING:
    from .trace import TraceEvent


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
