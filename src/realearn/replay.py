"""Replay of recorded runs along the decision tree of the least-element
pass.

That tree is never built.  For ``r_0 .. r_n`` it has depth n: the node
at depth i compares the current candidate with i (the pair
``(candidate, i)``), an assumed answer keeps the candidate and a
strict one makes i the candidate.  A recorded path is therefore checked
by walking it once, in time linear in its length, for any n.  The
replay reads each run once, as its events arrive.  It holds the depth,
candidate and rank of the path it is walking, and the rank and
reported candidate of each path it has walked, so its memory grows
with the number of paths, not with the length of a trace.  It reads
nothing but the recorded events, so ``realearn tree`` loads no reals
and no learner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from ._record import _Record
from .errors import PathMismatch

if TYPE_CHECKING:
    from .trace import TraceEvent


class RunReplay(_Record):
    """One replayed run: the rank and reported candidate of each of its
    paths, its restarts, and whether its ranks increase, are unique and
    stay within the bound."""

    __slots__ = ("_leaf_ranks", "_leaf_candidates", "_restarts",
                 "_progress_ok", "_unique_ok", "_bound_ok")
    __hash__ = None

    @property
    def ok(self) -> bool:
        return self.progress_ok and self.unique_ok and self.bound_ok


class ReplayVerdict(_Record):
    """The replay of every run over indices ``1..n``."""

    __slots__ = ("_n", "_runs")
    __hash__ = None

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)


def replay_paths(runs: Iterable[Iterable[TraceEvent]],
                 n: Optional[int] = None) -> ReplayVerdict:
    """Re-walk recorded runs along the decision tree over indices 1..n.

    Each candidate computation in a run maps to one root-to-leaf path.
    Verifies that every path is a path of the tree (each pair is the
    integers ``(candidate, depth)``, each ``step`` the integer depth,
    each decision is ``"assume"`` or ``"strict"`` and the final
    candidate is the same integer), that leaf ranks strictly increase
    across restarts, that no path repeats, and that the number of
    restarts stays below ``2**n``.  The numbers that the tree does not
    fix are checked too: the events' ``seq`` run 0, 1, 2, ... in each
    run, and each ``restart`` event's ``count`` is the integer count of
    restarts so far.  A leaf's rank reads the path's answers as binary
    digits, strict = 1, root first.  ``n`` defaults to the length of the
    first run's first path.

    Each run is read once, in order, and the first mismatch is raised
    only when every run has been read, so an error that reading a run
    raises comes before it.  In a run, decisions after its last
    candidate come before any other mismatch.  A wrong ``seq`` or
    ``count`` is found at its event, and a path's mismatch at its
    candidate; of these, the one found first in the run comes first.
    In a path, its length comes before a decision, a decision's pair
    before its step, its step before its answer, an earlier decision
    before a later one, and every decision before the candidate.
    """
    replays: List[RunReplay] = []
    mismatch: Optional[str] = None
    for events in runs:
        ranks: List[int] = []
        candidates: List[int] = []
        restarts = depth = candidate = rank = 0
        error = wrong = None
        for position, event in enumerate(events):
            phase = event.phase
            # == takes false, true and 0.0 for 0 and 1, so every number
            # read must also be an int
            if (seq := event.seq) != position or type(seq) is not int:
                error = error or (f"event seq {seq!r} does not match "
                                  f"position {position}")
            if phase == "decide":
                depth += 1
                payload = event.payload
                pair = payload.get("pair")
                step = payload.get("step")
                decision = payload.get("decision")
                if wrong is None and (pair != [candidate, depth]
                                      or type(pair[0]) is not int
                                      or type(pair[1]) is not int):
                    wrong = (f"decision pair {pair} does not match "
                             f"tree node {(candidate, depth)}")
                if wrong is None and (step != depth or type(step) is not int):
                    wrong = (f"decision step {step!r} does not match "
                             f"depth {depth}")
                if wrong is None and decision not in ("assume", "strict"):
                    wrong = (f"decision {decision!r} at tree node "
                             f"{(candidate, depth)} is neither 'assume' "
                             "nor 'strict'")
                strict = decision == "strict"
                rank = rank << 1 | strict
                if strict:
                    candidate = depth
            elif phase in ("candidate", "select-A"):
                reported = event.payload.get("candidate")
                if n is None:
                    n = depth
                if depth != n:
                    wrong = f"path length {depth} does not match n = {n}"
                elif wrong is None and (type(reported) is not int
                                        or candidate != reported):
                    wrong = (f"leaf candidate {candidate} does not match "
                             f"reported candidate {reported!r}")
                error = error or wrong
                ranks.append(rank)
                candidates.append(reported)
                depth = candidate = rank = 0
                wrong = None
            elif phase == "restart":
                restarts += 1
                count = event.payload.get("count")
                if error is None and (type(count) is not int
                                      or count != restarts):
                    error = (f"restart count {count!r} does not match "
                             f"restart {restarts}")
        if depth:
            error = "trace ends with decisions but no candidate"
        elif not ranks:
            error = "run contains no candidate computations"
        mismatch = mismatch or error
        if mismatch is None:
            replays.append(RunReplay(
                ranks, candidates, restarts,
                all(x < y for x, y in zip(ranks, ranks[1:])),
                len(set(ranks)) == len(ranks),
                restarts <= 2 ** n - 1 and restarts == len(ranks) - 1))
    if mismatch is not None:
        raise PathMismatch(mismatch)
    if not replays:
        raise ValueError("no runs to replay")
    return ReplayVerdict(n, replays)
