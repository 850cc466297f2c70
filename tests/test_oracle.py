from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realearn import (
    Challenge,
    LeastCandidate,
    RealRegistry,
    empty_state,
    find_strict_witness,
    learn_least,
)
from realearn.errors import PathMismatch
from realearn.geometry import RationalPoint
from realearn.oracle import (
    OracleAuditor,
    TieDetected,
    exact_convex_check,
    exact_min_index,
    exact_orientation,
    separation_bits,
    separation_from_gap,
)
from realearn.replay import replay_paths
from realearn.trace import TraceEvent

from support import StringTrace


def test_exact_orientation_signs():
    a = RationalPoint(Fraction(0), Fraction(0))
    b = RationalPoint(Fraction(1), Fraction(0))
    assert exact_orientation(a, b, RationalPoint(Fraction(0), Fraction(1))) == 1
    assert exact_orientation(a, b, RationalPoint(Fraction(0), Fraction(-1))) == -1
    assert exact_orientation(a, b, RationalPoint(Fraction(2), Fraction(0))) == 0


def test_exact_min_index():
    assert exact_min_index([Fraction(2), Fraction(1), Fraction(3)]) == 1
    with pytest.raises(TieDetected):
        exact_min_index([Fraction(1), Fraction(1)])


def test_exact_convex_check_clauses():
    square = [RationalPoint(Fraction(x), Fraction(y))
              for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    # the corner at the origin bounds the opposite corner
    assert exact_convex_check(square, 0, 1, 3)
    # indices must be three distinct point indices
    assert not exact_convex_check(square, 0, 1, 1)
    assert not exact_convex_check(square, 0, 1, 9)
    # corner 3 lies left of both rays of (0, 1, 2): not bounded
    assert not exact_convex_check(square, 0, 1, 2)
    wedge = [RationalPoint(Fraction(x), Fraction(y))
             for x, y in [(0, 1), (-2, -1), (2, -1), (0, -2)]]
    assert exact_convex_check(wedge, 0, 1, 2)
    # wrong apex fails the mutual clause
    assert not exact_convex_check(wedge, 3, 1, 2)


def test_separation_from_gap():
    assert separation_from_gap(Fraction(2)) == 0
    assert separation_from_gap(Fraction(1)) == 1
    assert separation_from_gap(Fraction(1, 3)) == 2
    assert separation_from_gap(Fraction(1, 4)) == 3
    with pytest.raises(ValueError):
        separation_from_gap(Fraction(0))


def looped_separation(gap):
    """The former search: count up to the least k with 2**-k < gap."""
    k = 0
    while Fraction(1, 2 ** k) >= gap:
        k += 1
    return k


big_ints = st.integers(1, 10 ** 300)
gaps = st.one_of(
    st.fractions(min_value=Fraction(1, 2 ** 80)).filter(lambda q: q > 0),
    st.builds(Fraction, big_ints, big_ints),
    st.integers(-20, 1000).map(lambda e: Fraction(2) ** -e),
    st.integers(-20, 1000).map(lambda e: Fraction(2) ** -e * Fraction(1, 3)),
    st.integers(1, 1000).map(
        lambda e: Fraction(2) ** -e + Fraction(1, 10 ** 300)),
)


@settings(max_examples=300, deadline=None)
@given(gaps)
def test_separation_from_gap_matches_the_loop(gap):
    assert separation_from_gap(gap) == looped_separation(gap)


exact_values = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-10 ** 300, 10 ** 300), big_ints),
    st.integers(-1000, 1000).map(lambda e: Fraction(2) ** e),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_values, min_size=2, max_size=2, unique=True),
       st.integers(1, 2 ** 70))
def test_the_integer_budget_is_the_separation_of_the_gap(pair, scale):
    # the oracle's unreduced gap (a*d - c*b) / (b*d), here with a/b
    # unreduced too, has the floor of the reduced one
    lo, hi = sorted(pair)
    a, b = hi.numerator * scale, hi.denominator * scale
    c, d = lo.numerator, lo.denominator
    assert separation_bits(a * d - c * b, b * d) == separation_from_gap(hi - lo)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda size: st.permutations(range(size))))
def test_oracle_challenges_the_lowest_index_ranked_below(order):
    # order[i] is the rank of value i; the values are spread on a grid
    values = [Fraction(3 * rank - 40, 7) for rank in order]
    reg = RealRegistry()
    for q in values:
        reg.blurred(q)
    auditor = OracleAuditor(reg, values)
    for m in range(len(values)):
        below = [j for j in range(len(values)) if values[j] < values[m]]
        ch = auditor.challenge(LeastCandidate(m, {}))
        if not below:
            assert ch is None
            continue
        j = below[0]
        budget = separation_from_gap(values[m] - values[j]) + 64
        assert ch == Challenge(j, find_strict_witness(reg[j], reg[m], budget))


def test_oracle_auditor_challenges_lowest_refutable_index():
    reg = RealRegistry()
    values = [Fraction(2), Fraction(1), Fraction(3)]
    for q in values:
        reg.blurred(q)
    auditor = OracleAuditor(reg, values)
    from realearn import least_candidate
    cand = least_candidate(empty_state(reg), 2)
    ch = auditor.challenge(cand)
    assert ch == Challenge(1, 1)


def fraction_scan_challenge(values, separation, candidate):
    """The former challenge, kept as reference: the lowest index whose
    exact value lies below the candidate's, found by comparing Fractions."""
    for j, value in enumerate(values):
        if value < values[candidate]:
            return Challenge(j, separation(j, candidate))
    return None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=2 ** 12), min_size=1,
                max_size=25, unique=True))
def test_rank_scan_picks_the_fraction_scan_challenge(values):
    reg = RealRegistry()
    for q in values:
        reg.blurred(q)

    def separation(j, m):
        return find_strict_witness(reg[j], reg[m], 256)

    auditor = OracleAuditor(reg, values)
    for m in range(len(values)):
        assert auditor.challenge(LeastCandidate(m, {})) == \
            fraction_scan_challenge(values, separation, m)


def first_below_by_fractions(values):
    """For each index m, the lowest index of the values before m in the
    order that ``sorted`` gives the Fractions, or None."""
    order = sorted(range(len(values)), key=lambda i: Fraction(values[i]))
    first = [None] * len(values)
    for pos, m in enumerate(order[1:], 1):
        first[m] = min(order[:pos])
    return first


PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))]


@pytest.mark.parametrize("values", [
    [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 12), -1, Fraction(1, 1000),
     Fraction(-5, 2), Fraction(333, 1000), Fraction(-4, 14) - Fraction(1, 99)],
    [1, 1 + Fraction(1, 2 ** 80), 1 - Fraction(1, 2 ** 80), Fraction(1, 2),
     1 + Fraction(1, 2 ** 79)],
    [10 ** 400, -10 ** 400, 10 ** 400 + 1, -10 ** 400 - 1, 0,
     Fraction(10 ** 400, 3), Fraction(-10 ** 401, 7), 10 ** 308],
    [Fraction(1, 10 ** 400), Fraction(-1, 10 ** 400), Fraction(2, 10 ** 400),
     Fraction(1, 10 ** 401), 0],
    [Fraction(1, p) for p in PRIMES] + [Fraction(-1, p) for p in PRIMES],
    [Fraction(1, p) + Fraction(k, 2 ** 70) for p in (3, 5) for k in range(4)],
], ids=["mixed", "close-to-one", "past-float-range", "below-float-range",
        "prime-denominators", "equal-floats"])
def test_oracle_auditor_orders_values_as_fractions_do(values):
    auditor = OracleAuditor(RealRegistry(), values)
    assert auditor._first_below == first_below_by_fractions(values)
    shuffled = values[::-1]
    assert (OracleAuditor(RealRegistry(), shuffled)._first_below
            == first_below_by_fractions(shuffled))


@pytest.mark.parametrize("values", [
    [Fraction(1), Fraction(1)],
    [Fraction(1, 2), "2/4"],
    [1, "3/3"],
    ["-3/6", Fraction(-1, 2)],
    [Fraction(0), 5, "-0/7"],
], ids=["fractions", "fraction-string", "int-string", "string-fraction",
        "zero-forms"])
def test_oracle_auditor_rejects_tied_values(values):
    # equal values in different forms are one reduced integer pair
    reg = RealRegistry()
    with pytest.raises(TieDetected):
        OracleAuditor(reg, values)


def synthetic_run(decisions_per_path, candidates, restarts):
    """Build a trace skeleton the replay walker accepts: seq numbered
    from 0, each step its depth, each restart's count the running
    count, for the first ``restarts`` paths."""
    events = []
    seq = count = 0
    for decides, candidate in zip(decisions_per_path, candidates):
        for step, (pair, decision) in enumerate(decides, 1):
            payload = {"step": step, "pair": list(pair), "decision": decision}
            events.append(TraceEvent(seq, "decide", payload))
            seq += 1
        events.append(TraceEvent(seq, "candidate", {"candidate": candidate}))
        seq += 1
        if count < restarts:
            count += 1
            events.append(TraceEvent(seq, "restart", {"count": count}))
            seq += 1
    return events


def tree_path(n, rank):
    """The root-to-leaf path of leaf ``rank`` in the decision tree over
    1..n, and its leaf candidate."""
    decides, candidate = [], 0
    for depth in range(1, n + 1):
        strict = (rank >> (n - depth)) & 1
        decides.append(((candidate, depth), "strict" if strict else "assume"))
        if strict:
            candidate = depth
    return decides, candidate


def tree_run(n, ranks):
    paths = [tree_path(n, rank) for rank in ranks]
    return synthetic_run([p for p, _ in paths], [c for _, c in paths],
                         restarts=len(ranks) - 1)


def test_replay_walks_every_leaf_of_the_n3_tree():
    verdict = replay_paths([tree_run(3, range(8))])
    assert verdict.n == 3
    assert verdict.runs[0].leaf_ranks == list(range(8))
    assert verdict.runs[0].leaf_candidates == [0, 3, 2, 3, 1, 3, 2, 3]
    assert verdict.ok
    assert replay_paths([tree_run(0, [0])]).runs[0].leaf_candidates == [0]


def test_replay_has_no_size_cap():
    ranks = [0, 1, 2 ** 39, 2 ** 40 - 1]
    verdict = replay_paths([tree_run(40, ranks)])
    assert verdict.n == 40
    assert verdict.runs[0].leaf_ranks == ranks
    assert verdict.runs[0].leaf_candidates == [0, 40, 1, 40]
    assert verdict.ok
    with pytest.raises(PathMismatch):
        replay_paths([tree_run(40, ranks)], n=-1)


def test_replay_accepts_a_legal_two_path_run():
    run = synthetic_run(
        [[((0, 1), "assume"), ((0, 2), "assume")],
         [((0, 1), "assume"), ((0, 2), "strict")]],
        [0, 2], restarts=1)
    verdict = replay_paths([run])
    assert verdict.n == 2
    assert verdict.runs[0].leaf_ranks == [0, 1]
    assert verdict.runs[0].leaf_candidates == [0, 2]
    assert verdict.ok


def test_replay_flags_rank_regression():
    run = synthetic_run(
        [[((0, 1), "strict"), ((1, 2), "assume")],
         [((0, 1), "assume"), ((0, 2), "assume")]],
        [1, 0], restarts=1)
    verdict = replay_paths([run])
    assert not verdict.runs[0].progress_ok
    assert not verdict.ok


def test_replay_rejects_wrong_pairs():
    run = synthetic_run([[((0, 2), "assume"), ((0, 1), "assume")]], [0], 0)
    with pytest.raises(PathMismatch):
        replay_paths([run])
    del run[0].payload["pair"]
    with pytest.raises(PathMismatch):
        replay_paths([run])


def test_replay_rejects_wrong_candidate():
    run = synthetic_run([[((0, 1), "strict"), ((1, 2), "assume")]], [0], 0)
    with pytest.raises(PathMismatch):
        replay_paths([run])
    run = synthetic_run([[((0, 1), "strict"), ((1, 2), "assume")]], ["1"], 0)
    with pytest.raises(PathMismatch):
        replay_paths([run])
    del run[-1].payload["candidate"]
    with pytest.raises(PathMismatch):
        replay_paths([run])


# tree_run(2, [0, 1]): the decisions (0, 1) and (0, 2) and the candidate
# 0 at events 0-2, a restart, then (0, 1), a strict (0, 2) and 2 at 4-6
@pytest.mark.parametrize("event, key, value, message", [
    (0, "pair", [False, 1], r"decision pair \[False, 1\] does not match "
                            r"tree node \(0, 1\)"),
    (0, "pair", [0, True], r"decision pair \[0, True\] does not match"),
    (1, "pair", [0.0, 2], r"decision pair \[0.0, 2\] does not match"),
    (5, "pair", [0, 2.0], r"decision pair \[0, 2.0\] does not match"),
    (0, "pair", [0, 1, 2], r"decision pair \[0, 1, 2\] does not match"),
    (0, "pair", "0,1", r"decision pair 0,1 does not match"),
    (2, "candidate", False, r"leaf candidate 0 does not match reported "
                            r"candidate False$"),
    (2, "candidate", 0.0, r"leaf candidate 0 does not match reported "
                          r"candidate 0.0$"),
    (6, "candidate", 2.0, r"leaf candidate 2 does not match reported "
                          r"candidate 2.0$"),
    (0, "decision", "bogus", r"decision 'bogus' at tree node \(0, 1\) is "
                             r"neither 'assume' nor 'strict'$"),
    (5, "decision", "Strict", r"decision 'Strict' at tree node \(0, 2\)"),
    (1, "decision", True, r"decision True at tree node \(0, 2\)"),
    (4, "decision", None, r"decision None at tree node \(0, 1\)"),
    (4, "decision", "missing", r"decision None at tree node \(0, 1\)"),
], ids=["pair-false", "pair-true", "pair-float", "pair-float-last",
        "pair-three", "pair-text", "candidate-false", "candidate-float",
        "candidate-float-last", "decision-bogus", "decision-case",
        "decision-true", "decision-null", "decision-missing"])
def test_replay_compares_pairs_candidates_and_decisions_exactly(
        event, key, value, message):
    run = tree_run(2, [0, 1])
    assert replay_paths([run]).ok
    if value == "missing":
        del run[event].payload[key]
    else:
        run[event].payload[key] = value
    with pytest.raises(PathMismatch, match="^" + message):
        replay_paths([run])


def retyped(event, seq):
    return TraceEvent(seq, event.phase, event.payload)


# tree_run(2, [0, 1]) again, with the restart at event 3: each event's
# seq is its position, each decision's step its depth, and the restart's
# count the running restart count, each an int
@pytest.mark.parametrize("event, key, value, message", [
    (3, "count", 7, r"restart count 7 does not match restart 1$"),
    (3, "count", True, r"restart count True does not match restart 1$"),
    (3, "count", "missing", r"restart count None does not match restart 1$"),
    (1, "step", 9, r"decision step 9 does not match depth 2$"),
    (4, "step", 1.0, r"decision step 1.0 does not match depth 1$"),
    (5, "step", "missing", r"decision step None does not match depth 2$"),
    (3, "seq", 99, r"event seq 99 does not match position 3$"),
    (0, "seq", False, r"event seq False does not match position 0$"),
    (6, "seq", 5, r"event seq 5 does not match position 6$"),
], ids=["count", "count-true", "count-missing", "step", "step-float",
        "step-missing", "seq", "seq-false", "seq-last"])
def test_replay_checks_seq_step_and_count(event, key, value, message):
    run = tree_run(2, [0, 1])
    assert replay_paths([run]).ok
    if key == "seq":
        run[event] = retyped(run[event], value)
    elif value == "missing":
        del run[event].payload[key]
    else:
        run[event].payload[key] = value
    with pytest.raises(PathMismatch, match="^" + message):
        replay_paths([run])


def test_replay_reports_a_wrong_number_in_run_order():
    # a seq is checked at its event and a path at its candidate: a wrong
    # seq inside a path beats that path's wrong pair
    run = tree_run(2, [0, 1])
    run[0].payload["pair"] = [0, 2]
    run[1] = retyped(run[1], 7)
    with pytest.raises(PathMismatch, match=r"^event seq 7 does not match"):
        replay_paths([run])
    # a path's mismatch beats a wrong count on the restart after it
    run = tree_run(2, [0, 1])
    run[2].payload["candidate"] = 1
    run[3].payload["count"] = 2
    with pytest.raises(PathMismatch, match=r"^leaf candidate 0 does not"):
        replay_paths([run])
    # in a decision, its pair before its step, its step before its answer
    run = tree_run(2, [0, 1])
    run[1].payload.update(pair=[0, 1], step=1, decision="bogus")
    with pytest.raises(PathMismatch, match=r"^decision pair \[0, 1\]"):
        replay_paths([run])
    run[1].payload["pair"] = [0, 2]
    with pytest.raises(PathMismatch, match=r"^decision step 1 does not"):
        replay_paths([run])
    # trailing decisions beat a wrong seq earlier in the run
    run = tree_run(2, [0, 1])
    run[0] = retyped(run[0], 1)
    run.append(TraceEvent(len(run), "decide",
                          {"step": 1, "pair": [0, 1], "decision": "assume"}))
    with pytest.raises(PathMismatch,
                       match="^trace ends with decisions but no candidate$"):
        replay_paths([run])


def test_replay_reports_a_wrong_decision_in_path_order():
    # in one decision its pair comes first, then its answer
    run = tree_run(2, [0, 1])
    run[0].payload.update(pair=[0, 2], decision="bogus")
    with pytest.raises(PathMismatch, match=r"^decision pair \[0, 2\]"):
        replay_paths([run])
    # an earlier decision before a later one, and both before the candidate
    run = tree_run(2, [0, 1])
    run[0].payload["decision"] = "bogus"
    run[1].payload["pair"] = [1, 2]
    run[2].payload["candidate"] = False
    with pytest.raises(PathMismatch, match=r"^decision 'bogus' at tree node "
                                           r"\(0, 1\)"):
        replay_paths([run])
    run[0].payload["decision"] = "assume"
    with pytest.raises(PathMismatch, match=r"^decision pair \[1, 2\]"):
        replay_paths([run])
    # the path's length before any of them
    with pytest.raises(PathMismatch, match=r"^path length 2 does not match "
                                           r"n = 3$"):
        replay_paths([run], n=3)


def test_replay_rejects_length_mismatch():
    run = synthetic_run([[((0, 1), "assume")]], [0], 0)
    with pytest.raises(PathMismatch):
        replay_paths([run], n=3)


def test_replay_reports_the_mismatch_a_whole_run_shows_first():
    # trailing decisions beat a wrong pair in an earlier path of the run
    run = synthetic_run(
        [[((0, 2), "assume")], [((0, 1), "strict")]], [0, 1], restarts=1)
    run.append(TraceEvent(len(run), "decide",
                          {"step": 1, "pair": [0, 1], "decision": "assume"}))
    with pytest.raises(PathMismatch,
                       match="^trace ends with decisions but no candidate$"):
        replay_paths([run])
    # a run with no path, first or later, even when n is given
    empty = [TraceEvent(0, "restart", {"count": 1})]
    for runs in ([empty], [tree_run(1, [0, 1]), empty]):
        with pytest.raises(PathMismatch,
                           match="^run contains no candidate computations$"):
            replay_paths(runs, n=1)
    # a path that is too short and has a wrong pair: its length
    run = synthetic_run([[((0, 2), "assume")]], [0], 0)
    with pytest.raises(PathMismatch,
                       match=r"^path length 1 does not match n = 3$"):
        replay_paths([run], n=3)
    # the first run's mismatch beats a later run's trailing decisions
    wrong = synthetic_run([[((0, 1), "strict")]], [0], 0)
    with pytest.raises(PathMismatch, match="^leaf candidate 1 does not"):
        replay_paths([tree_run(1, [0, 1]), wrong, run[:1]])


def test_replay_checks_restart_count_against_paths():
    run = synthetic_run(
        [[((0, 1), "assume")], [((0, 1), "strict")]],
        [0, 1], restarts=0)  # restart event missing
    verdict = replay_paths([run])
    assert not verdict.runs[0].bound_ok


def test_replay_on_real_learner_output():
    reg = RealRegistry()
    values = [Fraction(3), Fraction(1), Fraction(2)]
    for q in values:
        reg.blurred(q)
    log = StringTrace()
    learn_least(2, OracleAuditor(reg, values), empty_state(reg), 4, log)
    verdict = replay_paths([log.events])
    assert verdict.ok
    assert verdict.runs[0].leaf_candidates[-1] == 1
