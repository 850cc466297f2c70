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
from realearn.oracle import OracleAuditor, exact_min_index
from realearn.replay import replay_paths
from realearn.trace import read_trace

from support import count_trace_builds, distinct_fractions, evidence_graph

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
    trace = TraceLog()
    outcome = learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                          empty_state(worked_registry()), 32, trace)
    assert candidate_sequence(outcome.trace) == [0, 3, 2, 3, 1, 4]
    assert outcome.candidate.candidate == 4
    assert outcome.restarts == 5
    assert outcome.state.entries == {
        (0, 1): 33, (0, 2): 33, (0, 3): 33, (1, 4): 9, (2, 3): 12,
    }
    assert is_sound(outcome.state)


def test_worked_example_state_grows_by_one_per_restart():
    trace = TraceLog()
    learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                empty_state(worked_registry()), 32, trace)
    sizes = [len(e.payload["state"]) for e in trace.events
             if e.phase == "extend"]
    assert sizes == [1, 2, 3, 4, 5]


def test_worked_example_replay_ranks():
    outcome = learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                          empty_state(worked_registry()), 32)
    verdict = replay_paths([outcome.trace])
    assert verdict.n == 5
    run = verdict.runs[0]
    assert run.leaf_ranks == [0, 4, 8, 12, 16, 18]
    assert run.leaf_candidates == [0, 3, 2, 3, 1, 4]
    assert run.ok


def test_forced_challenge_still_extends_soundly():
    # the forced row reports a refutation its local check cannot see;
    # the extension it produces must still verify against the reals
    trace = TraceLog()
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
    trace = TraceLog()
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
    trace = TraceLog()
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
    phases, snapshots = count_trace_builds(monkeypatch)
    log = TraceLog()
    outcome = descending_oracle_run(100, log)
    assert outcome.restarts == 100
    assert phases == [] and snapshots == []

    path = tmp_path / "run.trace"
    path.write_text("".join(log.lines()))
    trace = outcome.trace
    assert phases.count("decide") == 101 * 100
    assert trace == read_trace(path)
    # one candidate event per pass, one extend per restart, one accept,
    # each written from its state's snapshot text
    assert sum("state" in e.payload for e in trace) == 101 + 100 + 1
    assert snapshots == []
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
    outcome = learn_least(len(values) - 1, OracleAuditor(reg, values),
                          empty_state(reg))
    text = "".join(event.to_json() + "\n" for event in outcome.trace)
    return outcome.restarts, hashlib.sha256(text.encode()).hexdigest()


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


def test_script_exhaustion_accepts_current_candidate():
    script = [Challenge(3, 33)]
    outcome = learn_least(5, ScriptedAuditor(script),
                          empty_state(worked_registry()), 32)
    assert outcome.candidate.candidate == 3
    assert outcome.restarts == 1


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
        outcome = learn_least(n, OracleAuditor(reg, values),
                              empty_state(reg), 2 ** (n + 1))
        assert outcome.candidate.candidate == exact_min_index(values)
        assert outcome.restarts <= 2 ** n - 1
        assert is_sound(outcome.state)
        assert replay_paths([outcome.trace], n).ok


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
    lazy_log, eager_log = TraceLog(), TraceLog()
    lazy = least_candidate(state, n, lazy_log)
    eager = eager_least_candidate(state, n, eager_log)
    assert lazy.candidate == eager.candidate
    assert list(lazy.evidences) == list(eager.evidences) == list(range(n + 1))
    assert len(lazy.evidences) == n + 1
    for j in range(n + 1):
        assert lazy.evidences[j] == eager.evidences[j]
    assert lazy == eager
    assert evidence_graph(lazy) == evidence_graph(eager)
    assert lazy_log.events == eager_log.events


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


def test_a_copied_state_keeps_its_own_strict_steps():
    state = extend(empty_state(worked_registry()), 0, 3, 33)
    assert state.strict_steps(5) == [(33, 3)]
    copied = copy.copy(state)
    assert extend(state, 0, 2, 25).strict_steps(5) == [(25, 2)]
    assert copied.strict_steps(5) == [(33, 3)]
    assert_pass_matches_the_eager_reference(copied, 5)


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
