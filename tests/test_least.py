import copy
import hashlib
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realearn import (
    Assumed,
    Challenge,
    ForcedChallengeDenied,
    KnowledgeState,
    LeastCandidate,
    NullAuditor,
    RealRegistry,
    Refl,
    RestartBudgetExceeded,
    ScriptedAuditor,
    Step,
    TraceLog,
    UnsoundWitness,
    empty_state,
    extend,
    find_strict_witness,
    is_sound,
    learn_least,
    least_candidate,
)
import realearn.knowledge
import realearn.least
from realearn.least import learn
from realearn.oracle import OracleAuditor, exact_min_index, separation_from_gap
from realearn.replay import replay_paths
from realearn.trace import emit_with_state, read_trace

from support import (StringTrace, count_trace_builds, distinct_fractions,
                     evidence_graph, random_table_prefix)

WORKED_VALUES = (0, Fraction(-5, 2), -1, -2, -3, 1)
WORKED_SCRIPT = [
    Challenge(3, 33),
    Challenge(2, 25, force=True),
    Challenge(3, 12),
    Challenge(1, 7),
    Challenge(4, 9),
]


def worked_registry() -> RealRegistry:
    reg = RealRegistry()
    for q in WORKED_VALUES:
        reg.blurred(q)
    return reg


def candidate_sequence(events):
    return [e.payload["candidate"] for e in events if e.phase == "candidate"]


def test_empty_state_pass_guesses_zero():
    state = empty_state(worked_registry())
    cand = least_candidate(state, 5)
    assert cand.candidate == 0
    assert cand.evidences[0] == Refl(0)
    assert all(cand.evidences[j] == Assumed(0, j) for j in range(1, 6))


def test_pass_switches_candidate_on_strict_answer():
    state = extend(empty_state(worked_registry()), 0, 3, 33)
    cand = least_candidate(state, 5)
    assert cand.candidate == 3
    # pre-switch evidence got chained through the strict step
    assert cand.evidences[0] == Step(33, Refl(0), 3)
    assert cand.evidences[1] == Step(33, Assumed(0, 1), 3)
    assert cand.evidences[2] == Step(33, Assumed(0, 2), 3)
    assert cand.evidences[3] == Refl(3)
    assert cand.evidences[4] == Assumed(3, 4)
    assert cand.evidences[5] == Assumed(3, 5)


def test_evidence_graph_after_one_extension():
    state = extend(empty_state(worked_registry()), 0, 3, 33)
    solid, dotted = evidence_graph(least_candidate(state, 5))
    assert solid == {(3, 0, 33)}
    assert dotted == {(3, 4), (3, 5), (0, 1), (0, 2)}


def test_null_auditor_accepts_first_guess():
    outcome = learn_least(5, NullAuditor(), empty_state(worked_registry()), 32)
    assert outcome.candidate.candidate == 0
    assert outcome.restarts == 0
    assert outcome.state.entries == {}


def test_worked_example_run():
    trace = StringTrace()
    outcome = learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                          empty_state(worked_registry()), 32, trace)
    assert candidate_sequence(trace.events) == [0, 3, 2, 3, 1, 4]
    assert outcome.candidate.candidate == 4
    assert outcome.restarts == 5
    assert outcome.state.entries == {
        (0, 1): 33, (0, 2): 33, (0, 3): 33, (1, 4): 9, (2, 3): 12,
    }
    assert is_sound(outcome.state)


def test_worked_example_state_grows_by_one_per_restart():
    trace = StringTrace()
    learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                empty_state(worked_registry()), 32, trace)
    sizes = [len(e.payload["state"]) for e in trace.events
             if e.phase == "extend"]
    assert sizes == [1, 2, 3, 4, 5]


def test_worked_example_replay_ranks():
    trace = StringTrace()
    learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                empty_state(worked_registry()), 32, trace)
    verdict = replay_paths([trace.events])
    assert verdict.n == 5
    run = verdict.runs[0]
    assert run.leaf_ranks == [0, 4, 8, 12, 16, 18]
    assert run.leaf_candidates == [0, 3, 2, 3, 1, 4]
    assert run.ok


def test_forced_challenge_still_extends_soundly():
    # the forced row reports a refutation its local check cannot see;
    # the extension it produces must still verify against the reals
    trace = StringTrace()
    outcome = learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                          empty_state(worked_registry()), 32, trace)
    forced = [e for e in trace.events if e.phase == "challenge"
              and e.payload["forced"]]
    assert len(forced) == 1 and forced[0].payload["j"] == 2
    assert is_sound(outcome.state)


def test_forced_challenge_the_reals_deny_is_reported_as_such():
    # r_0 <= r_0 is reflexive; r_0 = 0 <= r_5 = 1 holds at every precision
    for j, message in ((0, "reflexive claim on index 0 reported false"),
                       (5, "op_at(r_5, r_0, 5) is false")):
        auditor = ScriptedAuditor([Challenge(j=j, precision=5, force=True)])
        with pytest.raises(ForcedChallengeDenied, match=re.escape(message)):
            learn_least(5, auditor, empty_state(worked_registry()), 32)


debug_only = pytest.mark.skipif(
    not __debug__, reason="the run audits its states in debug builds only")


@debug_only
def test_unsound_initial_state_is_refused_before_the_first_pass():
    # r_3 = -2 is not below r_4 = -3 at any precision
    bad = KnowledgeState(worked_registry(), {(4, 3): 10})
    trace = StringTrace()
    with pytest.raises(UnsoundWitness, match="initial knowledge state"):
        learn_least(5, NullAuditor(), bad, 32, trace)
    assert trace.events == []


@debug_only
def test_unsound_final_state_is_refused_before_accepting(monkeypatch):
    # an extension that skips verification and keeps witness 0, at
    # which blurred 0 and -1 do not yet separate
    def unverified(state, i, j, k):
        return KnowledgeState(state.reals, {**state.entries, (i, j): 0})

    monkeypatch.setattr(realearn.least, "extend", unverified)
    trace = StringTrace()
    with pytest.raises(UnsoundWitness, match="final knowledge state"):
        learn_least(5, ScriptedAuditor([Challenge(2, 25)]),
                    empty_state(worked_registry()), 32, trace)
    assert [e.phase for e in trace.events].count("restart") == 1
    assert "accept" not in [e.phase for e in trace.events]


def test_oracle_run_verifies_each_witness_once(monkeypatch):
    # n = 100 descending values: 100 restarts.  Each learned entry is
    # verified by extend, each challenge by check_leq, and in debug
    # builds the final state once more; no answer is re-verified.
    rng = Random(0)
    keys = sorted(rng.sample(range(-2 ** 19, 2 ** 19 + 1), 101), reverse=True)
    values = [Fraction(key, 2 ** 12) for key in keys]
    reg = RealRegistry()
    for q in values:
        reg.blurred(q)
    calls = []
    op_at = realearn.knowledge.op_at

    def counted(r, s, k):
        calls.append(k)
        return op_at(r, s, k)

    monkeypatch.setattr(realearn.knowledge, "op_at", counted)
    outcome = learn_least(100, OracleAuditor(reg, values), empty_state(reg),
                          2 ** 100)
    assert outcome.candidate.candidate == 100
    assert outcome.restarts == 100
    assert len(calls) == (300 if __debug__ else 200)


def descending_oracle_run(n, trace=None):
    rng = Random(1)
    keys = sorted(rng.sample(range(-2 ** 19, 2 ** 19 + 1), n + 1),
                  reverse=True)
    values = [Fraction(key, 2 ** 12) for key in keys]
    reg = RealRegistry()
    for q in values:
        reg.blurred(q)
    return learn_least(n, OracleAuditor(reg, values), empty_state(reg),
                       2 ** n, trace)


def test_an_unread_trace_is_never_built(monkeypatch, tmp_path):
    # n = 100 descending values: 101 passes of 100 decisions each
    phases, renders = count_trace_builds(monkeypatch)
    log = TraceLog()
    outcome = descending_oracle_run(100, log)
    assert outcome.restarts == 100
    assert phases == [] and renders == []

    path = tmp_path / "run.trace"
    path.write_text("".join(log.lines()))
    trace = outcome.trace
    assert phases.count("decide") == 101 * 100
    assert trace == list(read_trace(path))
    # one candidate event per pass, one extend per restart, one accept,
    # each written from its state's snapshot text, which each of the 101
    # states, with 0..100 entries, renders once
    assert sum("state" in e.payload for e in trace) == 101 + 100 + 1
    assert renders == list(range(101))
    assert [e.seq for e in trace] == list(range(len(trace)))

    again = outcome.trace
    assert again == trace and again is not trace
    again[0].payload["pair"].append(7)
    again[-1].payload["state"].clear()
    assert outcome.trace == trace


def trace_sha256(values):
    reg = RealRegistry()
    for q in values:
        reg.blurred(q)
    log = StringTrace()
    outcome = learn_least(len(values) - 1, OracleAuditor(reg, values),
                          empty_state(reg), None, log)
    return outcome.restarts, hashlib.sha256(log.text.encode()).hexdigest()


def test_oracle_traces_are_pinned():
    # the sha256 of each run's trace file, as the former pass, which
    # looked up every index, wrote it
    descending = [Fraction(60 - i, 3) for i in range(61)]
    assert trace_sha256(descending) == (
        60, "2787f8f650dcd7de621d2b83016e4f6384a7c85a1ffb530fbf5756792a83c0d5")
    keys = Random(40).sample(range(-2 ** 19, 2 ** 19 + 1), 41)
    shuffled = [Fraction(key, 2 ** 12) for key in keys]
    assert trace_sha256(shuffled) == (
        3, "b7bb9d9e3b30bceff8cf580191c72f6604f62f57e9f3a4f8f8dd1dba0c001a3f")


def test_restart_budget_enforced():
    with pytest.raises(RestartBudgetExceeded) as exc:
        learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                    empty_state(worked_registry()), 2)
    assert exc.value.restarts == 3
    assert exc.value.budget == 2


def refuting_attempt(log, pairs, sizes):
    """An attempt for :func:`learn` over the worked reals that refutes
    ``pairs`` in turn, each at a witness the reals verify, and then
    accepts with its state and restart count; it appends the size of
    each state it is given to ``sizes``."""
    pending = iter(pairs)

    def attempt(state, cand, restarts):
        sizes.append(state.size)
        pair = next(pending, None)
        if pair is None:
            log.emit("accept", restarts=restarts)
            return state, restarts
        i, j = pair
        witness = sound_witness(state.reals, i, j)
        log.emit("blame", pair=[i, j], witness=witness)
        return realearn.knowledge.Falsified(pair, witness)

    return attempt


def loop_phases(log):
    return [e.phase for e in log.events if e.phase != "decide"]


def test_learn_accepting_the_first_attempt_restarts_nothing():
    log, sizes = StringTrace(), []
    state, restarts = learn(empty_state(worked_registry()), 5, log, None,
                            refuting_attempt(log, [], sizes))
    assert (state.size, restarts, sizes) == (0, 0, [0])
    assert loop_phases(log) == ["accept"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_learn_extends_once_and_restarts_once_per_refutation(k):
    pairs = [(0, 1), (2, 3), (3, 4)][:k]
    log, sizes = StringTrace(), []
    state, restarts = learn(empty_state(worked_registry()), 5, log, None,
                            refuting_attempt(log, pairs, sizes))
    assert restarts == k and sizes == list(range(k + 1))
    assert set(state.entries) == set(pairs)
    assert loop_phases(log) == ["blame", "extend", "restart"] * k + ["accept"]
    extends = [e.payload for e in log.events if e.phase == "extend"]
    assert [p["pair"] for p in extends] == [list(pair) for pair in pairs]
    assert [len(p["state"]) for p in extends] == list(range(1, k + 1))
    assert [e.payload["count"] for e in log.events
            if e.phase == "restart"] == list(range(1, k + 1))


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_learn_raises_past_its_budget(budget):
    log = StringTrace()
    with pytest.raises(RestartBudgetExceeded) as exc:
        learn(empty_state(worked_registry()), 5, log, budget,
              refuting_attempt(log, [(0, 1), (2, 3), (3, 4)], []))
    assert (exc.value.restarts, exc.value.budget) == (budget + 1, budget)
    assert loop_phases(log) == ["blame", "extend", "restart"] * budget + [
        "blame", "extend"]


@pytest.mark.skipif(not __debug__, reason="asserts are stripped under -O")
def test_learn_refuses_a_pair_it_already_knows():
    log = StringTrace()
    with pytest.raises(AssertionError, match="blamed pair was already known"):
        learn(empty_state(worked_registry()), 5, log, None,
              refuting_attempt(log, [(0, 1), (0, 1)], []))
    assert loop_phases(log) == ["blame", "extend", "restart", "blame"]


def test_script_exhaustion_accepts_current_candidate():
    script = [Challenge(3, 33)]
    auditor = ScriptedAuditor(script)
    # the auditor plays the script it was built with: the caller's
    # later changes to its list are not played
    script[0] = Challenge(1, 7)
    script += WORKED_SCRIPT[1:]
    outcome = learn_least(5, auditor, empty_state(worked_registry()), 32)
    assert outcome.candidate.candidate == 3
    assert outcome.restarts == 1
    assert auditor.challenge(outcome.candidate) is None


def test_oracle_auditor_reaches_true_minimum():
    reg = worked_registry()
    auditor = OracleAuditor(reg, WORKED_VALUES)
    outcome = learn_least(5, auditor, empty_state(reg), 31)
    assert outcome.candidate.candidate == 4
    assert outcome.restarts == 2
    assert outcome.state.entries == {(0, 1): 0, (1, 4): 2}


def test_oracle_runs_on_random_values():
    rng = Random(42)
    for _ in range(25):
        n = rng.randint(0, 9)
        values = distinct_fractions(rng, n + 1)
        reg = RealRegistry()
        for q in values:
            reg.blurred(q)
        log = StringTrace()
        outcome = learn_least(n, OracleAuditor(reg, values),
                              empty_state(reg), 2 ** (n + 1), log)
        assert outcome.candidate.candidate == exact_min_index(values)
        assert outcome.restarts <= 2 ** n - 1
        assert is_sound(outcome.state)
        assert replay_paths([log.events], n).ok


@st.composite
def oracle_inputs(draw):
    """Reals r_0 .. r_n with distinct limits on a 2^-10 grid, scaled by
    1, 2^-20 or 2^-40, each rational, blurred or given by a table of up
    to six intervals: the registry, the limits and which reals are
    blurred."""
    keys = draw(st.lists(st.integers(-2 ** 12, 2 ** 12), min_size=1,
                         max_size=13, unique=True))
    scale = draw(st.sampled_from([1, 2 ** 20, 2 ** 40]))
    kinds = draw(st.lists(st.sampled_from(["rational", "blurred", "table"]),
                          min_size=len(keys), max_size=len(keys)))
    rng = draw(st.randoms(use_true_random=False))
    reg = RealRegistry()
    values = [Fraction(key, 2 ** 10 * scale) for key in keys]
    for kind, value in zip(kinds, values):
        if kind == "rational":
            reg.from_rational(value)
        elif kind == "blurred":
            reg.blurred(value)
        else:
            reg.from_table(random_table_prefix(value, rng, rng.randint(0, 6)),
                           value)
    return reg, values, [kind == "blurred" for kind in kinds]


@settings(max_examples=150, deadline=None)
@given(oracle_inputs())
def test_oracle_learns_each_pair_at_its_least_witness(drawn):
    # the argument in OracleAuditor's docstring: from the empty state
    # every challenge is a bare assumption (m, j), blamed as it is
    reg, values, blurred = drawn
    n = len(values) - 1
    log = StringTrace()
    outcome = learn_least(n, OracleAuditor(reg, values), empty_state(reg),
                          None, log)
    claim = None
    for event in log.events:
        if event.phase == "challenge":
            claim = event.payload["claim"]
        elif event.phase == "blame":
            assert event.payload["pair"] == claim
    for (i, j), witness in outcome.state.entries.items():
        below = [b for b, v in enumerate(values) if v < values[i]]
        assert i < j == below[0]
        gap = values[i] - values[j]
        assert witness == find_strict_witness(
            reg[j], reg[i], separation_from_gap(gap) + 64)
        if blurred[i] and blurred[j]:
            assert witness == separation_from_gap(gap)
    # the chain 0 -> ... -> argmin, each step to the lowest index below
    m, length = 0, 0
    while any(v < values[m] for v in values):
        m = next(b for b, v in enumerate(values) if v < values[m])
        length += 1
    assert (outcome.candidate.candidate, outcome.restarts) == (m, length)


def eager_least_candidate(state, n, trace=None):
    """The former pass, kept as reference: it rebuilds every evidence
    chain on each strict answer, so it is O(n^2) in time and Steps."""
    candidate = 0
    evidences = {0: Refl(0)}
    for i in range(1, n + 1):
        witness = state.get(candidate, i)
        if witness is None:
            if trace is not None:
                trace.emit("decide", step=i, pair=[candidate, i], decision="assume")
            evidences[i] = Assumed(candidate, i)
        else:
            if trace is not None:
                trace.emit("decide", step=i, pair=[candidate, i],
                           decision="strict", witness=witness)
            evidences = {
                j: Step(witness, ev, i) for j, ev in evidences.items()
            }
            evidences[i] = Refl(i)
            candidate = i
    return LeastCandidate(candidate, evidences)


@st.composite
def reals_and_states(draw):
    """Distinct blurred reals r_0 .. r_m on the 2^-12 grid, a pass
    length n <= m, a state over them, and up to two sound pairs the
    state does not hold.  The state is a random subset of the sound
    extensions grown by ``extend``, or a dict of arbitrary pairs and
    witnesses given to ``KnowledgeState`` directly; such a dict may
    hold pairs with i >= j or j > n, and need not be sound."""
    m = draw(st.integers(0, 30))
    n = draw(st.integers(0, m)) if draw(st.booleans()) else m
    keys = draw(st.lists(st.integers(-2 ** 20, 2 ** 20),
                         min_size=m + 1, max_size=m + 1, unique=True))
    if draw(st.booleans()):
        keys.sort(reverse=True)  # every pass comparison can be strict
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    reg = RealRegistry()
    for key in keys:
        reg.blurred(Fraction(key, 2 ** 12))
    pairs = [(i, j) for i in range(m + 1) for j in range(m + 1)
             if rng.random() < density]
    if draw(st.booleans()):
        state = KnowledgeState(reg, {pair: rng.randrange(40) for pair in pairs})
    else:
        state = empty_state(reg)
        for i, j in pairs:
            if keys[j] < keys[i]:
                state = extend(state, i, j, sound_witness(reg, i, j))
    new = [(i, j) for i in range(m + 1) for j in range(m + 1)
           if keys[j] < keys[i] and (i, j) not in state.entries]
    return state, n, rng.sample(new, min(2, len(new)))


def sound_witness(reg, i, j):
    return find_strict_witness(reg[j], reg[i], 64)


def assert_pass_matches_the_eager_reference(state, n):
    lazy_log, eager_log = StringTrace(), StringTrace()
    lazy = least_candidate(state, n, lazy_log)
    eager = eager_least_candidate(state, n, eager_log)
    assert lazy.candidate == eager.candidate
    assert list(lazy.evidences) == list(eager.evidences) == list(range(n + 1))
    assert len(lazy.evidences) == n + 1
    for j in range(n + 1):
        assert lazy.evidences[j] == eager.evidences[j]
    assert lazy == eager
    assert evidence_graph(lazy) == evidence_graph(eager)
    assert lazy_log.text == eager_log.text


@settings(max_examples=60, deadline=None)
@given(reals_and_states())
def test_pass_matches_the_eager_reference(drawn):
    # The parent is extended twice, with different pairs, and passed
    # again after each extension; every state's pass is checked.
    state, n, pairs = drawn
    assert_pass_matches_the_eager_reference(state, n)
    children = []
    for i, j in pairs:
        children.append(extend(state, i, j, sound_witness(state.reals, i, j)))
        assert_pass_matches_the_eager_reference(state, n)
    for child in children:
        assert child.size == state.size + 1
        assert_pass_matches_the_eager_reference(child, n)


def strict_prefix(state, n):
    """The strict steps of a pass over ``0..n``, read within the length
    that ``strict_steps`` hands out with the shared list."""
    steps, length = state.strict_steps(n)
    return steps[:length]


def test_a_copied_state_keeps_its_own_strict_steps():
    state = extend(empty_state(worked_registry()), 0, 3, 33)
    assert strict_prefix(state, 5) == [(33, 3)]
    copied = copy.copy(state)
    assert strict_prefix(extend(state, 0, 2, 25), 5) == [(25, 2)]
    assert strict_prefix(copied, 5) == [(33, 3)]
    assert_pass_matches_the_eager_reference(copied, 5)


def descending_registry(count):
    reg = RealRegistry()
    for i in range(count):
        reg.blurred(Fraction(count - i, 7))
    return reg


def test_siblings_at_one_length_keep_their_own_chains():
    # r_0 > r_1 > ... : the first sibling appends to the shared list in
    # place, a second at the same length copies the chain before it
    # appends, and the parent still reads its own chain
    reg = descending_registry(6)
    parent = extend(extend(empty_state(reg), 0, 1, 4), 1, 2, 4)
    first = extend(parent, 2, 3, 4)
    second = extend(parent, 2, 4, 3)
    assert first._chain is parent._chain
    assert second._chain is not parent._chain
    assert strict_prefix(parent, 5) == [(4, 1), (4, 2)]
    assert strict_prefix(first, 5) == [(4, 1), (4, 2), (4, 3)]
    assert strict_prefix(second, 5) == [(4, 1), (4, 2), (3, 4)]
    # extending the first sibling at its end grows the one list again
    assert extend(first, 3, 4, 4)._chain is parent._chain
    assert strict_prefix(first, 5) == [(4, 1), (4, 2), (4, 3)]
    assert strict_prefix(parent, 1) == [(4, 1)]


def test_a_descending_run_grows_one_chain_list():
    # each restart learns (m, m + 1) at the chain's end: every pass of
    # the run reads the one list, at lengths 0, 1, ..., n
    n = 60
    reg = descending_registry(n + 1)
    log = TraceLog()
    values = [Fraction(n + 1 - i, 7) for i in range(n + 1)]
    outcome = learn_least(n, OracleAuditor(reg, values), empty_state(reg),
                          trace=log)
    passes = [args for _, text, args in log._blocks
              if text is realearn.least._decide_text]
    assert [length for _, _, length in passes] == list(range(n + 1))
    assert {id(strict) for _, strict, _ in passes} == {id(outcome.state._chain)}
    assert len(outcome.state._chain) == n


def walked_strict_steps(entries, n):
    """The strict steps of a pass over ``0..n``, walked on the entries
    themselves: from 0, the entry (i, j) with the least j > i, while
    j <= n."""
    steps, i = [], 0
    while later := [(j, w) for (a, j), w in entries.items()
                    if a == i and i < j <= n]:
        i, witness = min(later)
        steps.append((witness, i))
    return steps


@st.composite
def extend_sequences(draw):
    """Distinct blurred reals r_0 .. r_m and operations on a growing
    list of states that starts with the empty one: extend a drawn state
    with a drawn sound pair it does not hold, add a shallow copy of a
    drawn state, which shares its lineage, or ask a drawn state for its
    strict steps.  A pair may have j < i, an i off the chain or cut the
    chain in the middle; a state, a copy included, may be extended more
    than once and asked before, between and after its extensions."""
    m = draw(st.integers(1, 12))
    keys = draw(st.lists(st.integers(-2 ** 20, 2 ** 20),
                         min_size=m + 1, max_size=m + 1, unique=True))
    if draw(st.booleans()):
        keys.sort(reverse=True)  # every pair (i, j) with j > i is sound
    ops = draw(st.lists(st.tuples(st.sampled_from(["extend", "copy", "ask"]),
                                  st.integers(0, 2 ** 16),
                                  st.integers(0, 2 ** 16)), max_size=40))
    return keys, ops


@settings(max_examples=150, deadline=None)
@given(extend_sequences())
def test_the_chain_follows_every_extension(drawn):
    keys, ops = drawn
    reg = RealRegistry()
    for key in keys:
        reg.blurred(Fraction(key, 2 ** 12))
    m = len(keys) - 1
    sound = [(i, j) for i in range(m + 1) for j in range(m + 1)
             if keys[j] < keys[i]]
    states = [empty_state(reg)]
    handed = []
    log, expected = TraceLog(), StringTrace()

    def ask(state):
        own = KnowledgeState(reg, state.entries)
        for n in range(m + 1):
            steps, length = state.strict_steps(n)
            assert steps[:length] == walked_strict_steps(state.entries, n)
            assert steps[:length] == strict_prefix(own, n)
            handed.append((steps, length, steps[:length]))
            # the decide lines a TraceLog writes of this pass when it is
            # read, after every later extension
            least_candidate(state, n, log)
            least_candidate(own, n, expected)

    for op, p, q in ops:
        state = states[p % len(states)]
        new = [pair for pair in sound if pair not in state.entries]
        if op == "extend" and new:
            i, j = new[q % len(new)]
            states.append(extend(state, i, j, sound_witness(reg, i, j)))
        elif op == "copy":
            states.append(copy.copy(state))
        else:
            ask(state)
    for state in states:
        ask(state)
    # no prefix handed out has changed since, though the list may grow
    for steps, length, copied in handed:
        assert steps[:length] == copied
    assert "".join(log.lines()) == expected.text


def state_reads(state, m):
    """Everything a reader sees of ``state`` over the reals r_0 .. r_m,
    its entries, a view over a new copy on every read, last."""
    pairs = [(i, j) for i in range(m + 1) for j in range(m + 1)]
    return ({pair: state.get(*pair) for pair in pairs}, state.size,
            state.sorted_entries(), state.snapshot_json,
            [strict_prefix(state, n) for n in range(m + 1)],
            dict(state.entries))


@settings(max_examples=150, deadline=None)
@given(extend_sequences())
def test_every_state_stays_sealed_over_sibling_extensions(drawn):
    # states of one lineage, copies included, share their entries dict,
    # successor index and chain list: extending any state, the newest
    # or an earlier one, must change no read of any other, nor any view
    # handed out, nor the trace lines, a state's snapshot or a pass's
    # decide lines, that a TraceLog writes after later extensions
    keys, ops = drawn
    reg = RealRegistry()
    for key in keys:
        reg.blurred(Fraction(key, 2 ** 12))
    m = len(keys) - 1
    sound = [(i, j) for i in range(m + 1) for j in range(m + 1)
             if keys[j] < keys[i]]
    states = [empty_state(reg)]
    log, expected = TraceLog(), StringTrace()
    seen = []

    def record(state):
        # the reads and the line a trace file writes now, from a state
        # of its own
        entries = {(i, j): w for i, j, w in state.sorted_entries()}
        own = KnowledgeState(reg, entries)
        emit_with_state(log, "candidate", state, candidate=state.size)
        emit_with_state(expected, "candidate", own, candidate=state.size)
        least_candidate(state, m, log)
        least_candidate(own, m, expected)
        reads = state_reads(state, m)
        assert reads == state_reads(own, m)
        seen.append((state, reads, state.entries))

    for op, p, q in ops:
        state = states[p % len(states)]
        new = [pair for pair in sound if pair not in state.entries]
        if op == "extend" and new:
            i, j = new[q % len(new)]
            states.append(extend(state, i, j, sound_witness(reg, i, j)))
            record(states[-1])
        elif op == "copy":
            states.append(copy.copy(state))
            record(states[-1])
        else:
            record(state)
    for state, reads, view in seen:
        assert state_reads(state, m) == reads
        assert dict(view) == reads[-1] and len(view) == state.size
        assert is_sound(state)
        for other, other_reads, _ in seen:
            assert (state == other) == (reads[-1] == other_reads[-1])
    assert "".join(log.lines()) == expected.text


def test_evidences_is_a_read_only_mapping():
    state = extend(empty_state(worked_registry()), 0, 3, 33)
    evidences = least_candidate(state, 5).evidences
    with pytest.raises(KeyError):
        evidences[99]
    with pytest.raises(KeyError):
        evidences[-1]
    with pytest.raises(TypeError):
        evidences[0] = Refl(0)
    assert evidences.get(6) is None
    assert 5 in evidences and 6 not in evidences


def count_steps(monkeypatch):
    built = []
    post_init = Step.__post_init__

    def counted(step):
        built.append(step)
        post_init(step)

    monkeypatch.setattr(Step, "__post_init__", counted)
    return built


def test_pass_builds_no_steps_and_a_read_builds_one_chain(monkeypatch):
    n = 2000
    reg = RealRegistry()
    for i in range(n + 1):
        reg.blurred(Fraction(n - i))
    state = KnowledgeState(reg, {
        (i, i + 1): find_strict_witness(reg[i + 1], reg[i], 64)
        for i in range(n)})
    assert is_sound(state)
    built = count_steps(monkeypatch)

    cand = least_candidate(state, n)
    assert cand.candidate == n
    assert built == []

    assert cand.evidences[n] == Refl(n)
    assert built == []
    first = cand.evidences[0]
    assert len(built) == n
    assert built[-1] is first
    assert (first.subject, first.target) == (n, 0)
