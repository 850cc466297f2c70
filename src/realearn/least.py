"""Learning the least element of a finite list of reals.

:func:`least_candidate` runs a single pass over indices ``0..n`` and
returns the least element relative to the current knowledge state,
together with an evidence chain for every comparison it relied on.
With an empty state this is pure guessing: index 0 is proposed and
every comparison is assumed.  Only strict answers change anything, so
the pass takes its strict steps from the chain that every knowledge
state carries from the start, and that :func:`~realearn.knowledge.extend`
gives each new state, so the pass walks nothing.  It keeps the state's
chain list and the length of the prefix that holds its steps, and
builds an index's evidence, base and chain alike, only when it is
read, so a pass copies nothing and allocates no evidence however many
strict answers it meets.  With a log, the pass records its ``decide``
events as one block whose lines :func:`_decide_text` writes from the
list and the length when the log writes them, so an unread
:class:`TraceLog` writes none of them.

:func:`learn` is the one learning loop, shared by :func:`learn_least`
and :func:`~realearn.convex.convex_angle`: each attempt guesses with a
pass over the current state and runs the caller's test of the guess.
The test either ends the run or returns the :class:`Falsified` pair
it blamed; the loop then extends the state with that counterexample,
counts the restart against the budget and starts a new attempt.  In
:func:`learn_least` the test is an auditor's challenges at chosen
precisions, and a refuted claim is blamed on the assumption that
produced it.  A restart records what it writes as blocks of plain
arguments, the ints, states and records it already holds, and the
trace's serializers write their lines when the log is read.  Every
entry added in a run is verified by :func:`~realearn.knowledge.extend`,
so in debug builds the run audits the states it starts and ends with,
not each answer of each pass.
Each restart flips exactly one assumed comparison on the current
decision path to a strict one, so progress through the space of
decision paths is strictly left to right and the number of restarts is
bounded by ``2**n - 1``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from itertools import islice
from operator import attrgetter, itemgetter
from typing import (Callable, Iterable, Iterator, List, Optional, Protocol,
                    Sequence, Tuple, TypeVar, Union)

from ._record import _Record
from .errors import ForcedChallengeDenied, RestartBudgetExceeded
from .knowledge import (
    Assumed,
    Falsified,
    KnowledgeState,
    LeqEvidence,
    Refl,
    ReflFalsified,
    Step,
    UnsoundWitness,
    blame,
    check_leq,
    extend,
    is_sound,
)
from .reals import RealNum, op_at
from .trace import TraceLog, _event_line, _state_line, emit_with_state

_R = TypeVar("_R")


class Evidences(Mapping):
    """Read-only ``j -> evidence`` mapping of one least-element pass
    over ``0..n``.

    The first ``length`` items of ``strict`` are the pass's strict
    steps ``(witness, new candidate)`` in order; the list may hold more,
    which the pass never reads.  The candidate in force when j joined
    the pass is the subject of the last strict step whose subject is at
    most j, or 0: j's base evidence is ``Refl(j)`` when that candidate
    is j itself, else ``Assumed(candidate, j)``.  Reading
    ``evidences[j]`` finds that step by bisecting the subjects, builds
    the base and wraps it in a :class:`Step` for each strict step
    after it; nothing is built before.
    """

    __slots__ = ("_strict", "_length", "_n")

    def __init__(self, strict: List[Tuple[int, int]], length: int, n: int):
        self._strict = strict
        self._length = length
        self._n = n

    def __getitem__(self, j: int) -> LeqEvidence:
        if j not in range(self._n + 1):
            raise KeyError(j)
        strict = self._strict
        pos = bisect_right(strict, j, 0, self._length, key=itemgetter(1))
        candidate = strict[pos - 1][1] if pos else 0
        ev: LeqEvidence = Refl(j) if candidate == j else Assumed(candidate, j)
        for witness, subject in strict[pos:self._length]:
            ev = Step(witness, ev, subject)
        return ev

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n + 1))

    def __len__(self) -> int:
        return self._n + 1


class LeastCandidate(_Record):
    """A proposed least index plus evidence for each comparison.

    ``evidences[j]`` claims ``r_candidate <= r_j`` for every j in
    ``0..n``; the candidate's own entry is reflexive.
    """

    __slots__ = ("_candidate", "_evidences")
    __hash__ = None


class Challenge(_Record):
    """An auditor's demand: test claim ``candidate <= j`` at ``precision``.

    ``force`` marks the challenge as carrying its own refutation: the
    claim is treated as refuted at ``precision`` even if the local
    check does not observe a counterexample.  This models an outer
    argument that derived the counterexample elsewhere; the resulting
    state extension is still verified against the actual reals.
    """

    __slots__ = ("_j", "_precision", "_force")

    def __init__(self, j: int, precision: int, force: bool = False) -> None:
        self._j = j
        self._precision = precision
        self._force = force


class Auditor(Protocol):
    def challenge(self, cand: LeastCandidate) -> Optional[Challenge]:
        """Next challenge against this candidate, or None to accept."""


class NullAuditor:
    """Accepts every candidate immediately."""

    def challenge(self, cand: LeastCandidate) -> Optional[Challenge]:
        return None


class ScriptedAuditor:
    """Plays back a fixed list of challenges, taken when it is built,
    then accepts.

    Challenge order across candidates is the script's responsibility;
    the auditor simply hands out the next entry each time it is asked.
    """

    def __init__(self, script: Iterable[Challenge]):
        self._script = iter(tuple(script))

    def challenge(self, cand: LeastCandidate) -> Optional[Challenge]:
        return next(self._script, None)


def least_candidate(state: KnowledgeState, n: int,
                    trace: Optional[TraceLog] = None) -> LeastCandidate:
    """One deterministic pass proposing the least of ``r_0 .. r_n``.

    Walks i = 1..n keeping a running candidate.  A comparison with no
    stored witness is assumed and keeps the candidate; a strict answer
    switches the candidate to i and appends the strict step to the
    shared list, which puts it in front of every chain recorded so far.
    Between two strict answers every comparison is assumed, so the pass
    takes its strict steps from :meth:`KnowledgeState.strict_steps`, a
    prefix of the state's chain list given with its length, and copies
    and looks up nothing; no evidence is built until it is read.  With
    a trace, the pass defers its n ``decide`` events as one block,
    whose lines :func:`_decide_text` writes from the list and the
    length, so the lines are the same however far the list has grown
    by the time they are written.
    """
    strict, length = state.strict_steps(n)
    candidate = strict[length - 1][1] if length else 0
    if trace is not None:
        trace.defer(n, _decide_text, n, strict, length)
    return LeastCandidate(candidate, Evidences(strict, length, n))


def _decide_text(seq: int, n: int, strict: List[Tuple[int, int]],
                 length: int) -> str:
    """The ``decide`` lines of a pass over ``0..n``, numbered from
    ``seq``, written from its strict steps, the first ``length`` items
    of ``strict``: sorted keys, no spaces, ``witness`` last on a strict
    step.

    Step i is strict exactly when i is a strict subject, and it
    compares i with the last strict subject before it, or 0.  The steps
    between two strict subjects are assumed and compare the same
    candidate, so each nonempty run is one comprehension over a line
    head fixed for the run.  The pass is not walked again: no state
    lookup is made.
    """
    lines: List[str] = []
    append = lines.append
    base = seq - 1  # step i is line base + i
    candidate, start = 0, 1
    for witness, subject in [*islice(strict, length), (None, n + 1)]:
        if start < subject:
            head = f'{{"decision":"assume","pair":[{candidate},'
            lines += [f'{head}{i}],"phase":"decide","seq":{base + i},'
                      f'"step":{i}}}\n' for i in range(start, subject)]
        if subject <= n:
            append(f'{{"decision":"strict","pair":[{candidate},{subject}],'
                   f'"phase":"decide","seq":{base + subject},'
                   f'"step":{subject},"witness":{witness}}}\n')
        candidate, start = subject, subject + 1
    return "".join(lines)


class LearnOutcome(_Record):
    """The accepted candidate, the final state, the run's log, the
    restart count and the run's ``trace``: the events parsed from the
    log's lines, anew on every read."""

    __slots__ = ("_candidate", "_state", "_log", "_restarts")
    __hash__ = None

    trace = property(attrgetter("_log.events"))


def _forced_refutation(reals: Sequence[RealNum], ev: LeqEvidence,
                       p: int) -> Falsified:
    """Blame the refutation a forced challenge asserts at ``p`` about
    the reals ``r_0 .. r_n``.

    It is blamed the same way an observed counterexample would be, and
    the blamed witness is checked against the reals here: a forced
    claim the reals deny raises :class:`ForcedChallengeDenied`, not the
    programming errors that :func:`blame` and :func:`extend` report.
    """
    try:
        (i, j), witness = blame(ev, p)
    except ReflFalsified as exc:
        raise ForcedChallengeDenied(str(exc)) from exc
    if not op_at(reals[j], reals[i], witness):
        raise ForcedChallengeDenied(f"op_at(r_{j}, r_{i}, {witness}) is false")
    return Falsified((i, j), witness)


def _audit(state: KnowledgeState, which: str) -> None:
    if not is_sound(state):
        raise UnsoundWitness(f"{which} knowledge state holds a witness "
                             "that does not verify")


def learn(state: KnowledgeState, n: int, log: TraceLog, budget: Optional[int],
          attempt: Callable[[KnowledgeState, LeastCandidate, int],
                            Union[_R, Falsified]]) -> _R:
    """The restart loop of both learners, over the reals ``r_0 .. r_n``.

    Each attempt proposes :func:`least_candidate` from ``state`` and
    hands it to ``attempt(state, candidate, restarts)``, which records
    its own events and returns the run's result, or a
    :class:`Falsified` after recording its ``blame``.  A refutation
    extends the state with the blamed counterexample and counts a
    restart.  If that passes ``budget`` (default ``2 ** n``), the loop
    records ``extend`` alone and raises :class:`RestartBudgetExceeded`;
    otherwise it records ``extend`` and ``restart`` as one block and
    tries again.  Only this loop extends a learner's state, and each
    blamed pair must be new to it.
    """
    if budget is None:
        budget = 2 ** n
    restarts = 0
    while True:
        result = attempt(state, least_candidate(state, n, log), restarts)
        if not isinstance(result, Falsified):
            return result
        before = state.size
        state = extend(state, result.pair[0], result.pair[1], result.witness)
        assert state.size == before + 1, "blamed pair was already known"
        restarts += 1
        if restarts > budget:
            log.defer(1, _extend_line, state, result)
            raise RestartBudgetExceeded(restarts, budget)
        log.defer(2, _restart_text, state, result, restarts)


def _extend_line(seq: int, state: KnowledgeState, result: Falsified) -> str:
    return _state_line(seq, "extend", state, {"pair": list(result.pair),
                                              "witness": result.witness})


def _restart_text(seq: int, state: KnowledgeState, result: Falsified,
                  count: int) -> str:
    return (_extend_line(seq, state, result)
            + _event_line(seq + 1, "restart", {"count": count}))


def learn_least(n: int, auditor: Auditor, initial: KnowledgeState,
                max_restarts: Optional[int] = None,
                trace: Optional[TraceLog] = None) -> LearnOutcome:
    """Interactive least-element learning with restart backtracking.

    An attempt of :func:`learn` lets the auditor challenge claims of
    its candidate one at a time.  Each challenge is recorded before it
    is checked, so a check that raises leaves it last in a trace file.
    One that checks out is then recorded as ``check``; a refuted one is
    recorded as ``falsified`` with its ``blame``, in one block, and
    returned, and the loop extends the state and restarts.  The
    auditor accepting (returning None) ends the run.  More than
    ``max_restarts`` restarts (default ``2 ** n``) raise
    :class:`RestartBudgetExceeded`.

    In debug builds the run re-verifies the initial state before its
    first pass and the final state before it accepts, and raises
    :class:`UnsoundWitness` if either holds a witness that does not
    verify.  Between the two, :func:`extend` verifies every entry it
    adds and nothing else can add one, so no answer is re-checked.
    """
    if __debug__:
        _audit(initial, "initial")
    log = trace if trace is not None else TraceLog()
    reals = initial.reals

    def attempt(state: KnowledgeState, cand: LeastCandidate,
                restarts: int) -> Union[LearnOutcome, Falsified]:
        emit_with_state(log, "candidate", state, candidate=cand.candidate)
        while (ch := auditor.challenge(cand)) is not None:
            j, p = ch.j, ch.precision
            ev = cand.evidences[j]
            claim = ev.subject, ev.target
            # recorded before the check, which may raise
            log.defer(1, _challenge_line, j, p, claim, ch.force)
            result = check_leq(reals, ev, p)
            if result is None and ch.force:
                result = _forced_refutation(reals, ev, p)
            if result is not None:
                log.defer(2, _refuted_text, j, p, claim, result)
                return result
            log.defer(1, _checked_line, j, p)
        if __debug__:
            _audit(state, "final")
        emit_with_state(log, "accept", state,
                        candidate=cand.candidate, restarts=restarts)
        return LearnOutcome(cand, state, log, restarts)

    return learn(initial, n, log, max_restarts, attempt)


def _challenge_line(seq: int, j: int, precision: int, claim: Tuple[int, int],
                    forced: bool) -> str:
    return _event_line(seq, "challenge", {"j": j, "precision": precision,
                                          "claim": list(claim),
                                          "forced": forced})


def _refuted_text(seq: int, j: int, precision: int, claim: Tuple[int, int],
                  result: Falsified) -> str:
    return (_event_line(seq, "falsified", {"j": j, "precision": precision,
                                           "claim": list(claim)})
            + _event_line(seq + 1, "blame", {"pair": list(result.pair),
                                             "witness": result.witness}))


def _checked_line(seq: int, j: int, precision: int) -> str:
    return _event_line(seq, "check", {"j": j, "precision": precision,
                                      "outcome": "ok"})
