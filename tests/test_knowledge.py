from fractions import Fraction
from random import Random

import pytest

from realearn import (
    Assumed,
    Falsified,
    KnowledgeState,
    RealRegistry,
    Refl,
    ReflFalsified,
    Step,
    UnsoundWitness,
    blame,
    check_leq,
    empty_state,
    extend,
    is_sound,
    op_at,
)


def worked_registry() -> RealRegistry:
    reg = RealRegistry()
    for q in (0, Fraction(-5, 2), -1, -2, -3, 1):
        reg.blurred(q)
    return reg


def endpoints(ev):
    return (ev.subject, ev.target)


def test_evidence_endpoints():
    step = Step(33, Assumed(0, 2), 3)
    nested = Step(5, step, 7)
    ends = [endpoints(ev) for ev in (Refl(4), Assumed(0, 2), step, nested)]
    assert ends == [(4, 4), (0, 2), (3, 2), (7, 2)]


def test_step_requires_evidence_rest():
    with pytest.raises(TypeError):
        Step(3, "garbage", 1)


def test_step_equality_hash_and_repr_follow_the_chain():
    chain = Step(5, Step(9, Assumed(1, 2), 4), 7)
    assert repr(chain) == ("Step(witness=5, rest=Step(witness=9, "
                           "rest=Assumed(i=1, j=2), subject=4), subject=7)")
    same = Step(5, Step(9, Assumed(1, 2), 4), 7)
    assert chain == same and hash(chain) == hash(same)
    assert chain != Step(5, Step(9, Assumed(1, 3), 4), 7)
    assert chain != Step(5, Step(8, Assumed(1, 2), 4), 7)
    assert chain != Step(5, Assumed(1, 2), 7)
    assert chain != Assumed(1, 2)


def test_long_chains_compare_hash_and_print_without_recursion():
    def chain(base):
        ev = base
        for i in range(3000):
            ev = Step(i, ev, i + 1)
        return ev

    long, same = chain(Refl(0)), chain(Refl(0))
    assert long == same and hash(long) == hash(same)
    assert long != chain(Assumed(0, 1))
    assert {long: 1}[same] == 1
    text = repr(long)
    assert text.startswith("Step(witness=2999, rest=Step(witness=2998, ")
    assert text.count("Refl(i=0)") == 1
    assert text.endswith(", subject=2999), subject=3000)")


def test_blame_single_step():
    blamed = blame(Step(33, Assumed(0, 2), 3), 25)
    assert blamed == ((0, 2), 33)


def test_blame_folds_max_over_chain():
    chain = Step(5, Step(9, Assumed(1, 2), 4), 7)
    low, high = blame(chain, 3), blame(chain, 40)
    assert low == ((1, 2), 9)
    assert high == ((1, 2), 40)


def test_blame_on_refl_is_a_contradiction():
    with pytest.raises(ReflFalsified):
        blame(Step(10, Refl(3), 5), 2)
    with pytest.raises(ReflFalsified):
        blame(Refl(0), 7)


# The learner's total decision on r_i <= r_j reads KnowledgeState.get:
# None means assume the comparison, a witness means strict order.
def test_decide_total_assumes_unknown_pairs():
    state = empty_state(worked_registry())
    assert state.get(0, 3) is None


def test_decide_total_answers_strictly_from_state():
    state = extend(empty_state(worked_registry()), 0, 3, 33)
    assert state.get(0, 3) == 33
    # the reverse pair is still unknown
    assert state.get(3, 0) is None


def test_extend_verifies_the_witness():
    state = empty_state(worked_registry())
    # r_3 = -2 is not below r_4 = -3 at any precision
    with pytest.raises(UnsoundWitness):
        extend(state, 4, 3, 50)


def test_extend_rejects_insufficient_precision():
    state = empty_state(worked_registry())
    # blurred 0 and -1 separate only above precision 0
    with pytest.raises(UnsoundWitness):
        extend(state, 0, 2, 0)
    assert extend(state, 0, 2, 1).entries == {(0, 2): 1}


def test_extend_is_pure_and_idempotent():
    base = empty_state(worked_registry())
    first = extend(base, 0, 3, 33)
    assert base.entries == {}
    again = extend(first, 0, 3, 50)
    assert again.entries == {(0, 3): 33}
    assert first.size == again.size == 1


def knowledge_reads(state):
    """Everything a reader sees of a state over the worked registry."""
    pairs = [(i, j) for i in range(6) for j in range(6)]
    prefixes = []
    for n in range(6):
        steps, length = state.strict_steps(n)
        prefixes.append(steps[:length])
    return ([state.get(*pair) for pair in pairs], state.size,
            dict(state.entries), state.snapshot_json, prefixes)


def test_extend_with_a_held_pair_returns_that_very_state():
    # from the newest state of a lineage and from an older one, whose
    # prefix extend re-seals as a new state before it grows it;
    # growing the older state changes no read of the newest
    older = extend(empty_state(worked_registry()), 0, 3, 33)
    newest = extend(older, 3, 4, 1)
    assert extend(newest, 0, 3, 50) is newest
    assert extend(newest, 3, 4, 50) is newest
    assert extend(older, 0, 3, 50) is older
    before = knowledge_reads(newest)
    assert before[-1][-1] == [(33, 3), (1, 4)]
    # a new successor of 0 cuts the chain; a step at the chain's end
    # grows it past where the newest state's list holds a step already
    cut = extend(older, 0, 2, 1)
    grown = extend(older, 3, 4, 1)
    assert knowledge_reads(newest) == before
    assert cut.entries == {(0, 3): 33, (0, 2): 1}
    assert knowledge_reads(cut)[-1][-1] == [(1, 2)]
    assert grown == newest and grown is not newest
    assert knowledge_reads(grown) == before
    # the older state's extensions leave the newest the one that grows
    # in place, and growing it changes no read of theirs
    after = knowledge_reads(cut), knowledge_reads(grown)
    assert extend(newest, 2, 3, 1).size == 3
    assert (knowledge_reads(cut), knowledge_reads(grown)) == after
    assert knowledge_reads(newest) == before


def test_is_sound_detects_corruption():
    reg = worked_registry()
    good = extend(empty_state(reg), 0, 3, 33)
    bad = KnowledgeState(reg, {(4, 3): 10})
    sound = [is_sound(good), is_sound(bad)]
    assert sound == [True, False]


def test_state_entries_are_read_only():
    state = extend(empty_state(worked_registry()), 0, 3, 33)
    with pytest.raises(TypeError):
        state.entries[(0, 1)] = 0
    with pytest.raises(TypeError):
        del state.entries[(0, 3)]
    assert state.entries == {(0, 3): 33}


def test_state_copies_the_dict_it_is_given():
    given = {(0, 3): 33}
    state = KnowledgeState(worked_registry(), given)
    given[(0, 1)] = 0
    del given[(0, 3)]
    assert state.entries == {(0, 3): 33}
    assert state.get(0, 3) == 33 and state.get(0, 1) is None
    assert state.size == 1


def test_check_leq_accepts_true_claims():
    reg = worked_registry()
    # claim r_4 <= r_0 is true (-3 <= 0): never falsified
    result = check_leq(reg, Assumed(4, 0), 60)
    assert result is None


def test_check_leq_falsifies_assumed_directly():
    reg = worked_registry()
    result = check_leq(reg, Assumed(0, 3), 33)
    assert result == Falsified((0, 3), 33)


def test_check_leq_checks_the_whole_claim_not_the_last_link():
    reg = worked_registry()
    # Step claims r_3 <= r_2 via r_3 < r_0 (witness 33) and r_0 <= r_2;
    # the check tests the composite claim r_3 <= r_2, which holds
    ev = Step(33, Assumed(0, 2), 3)
    result = check_leq(reg, ev, 25)
    assert result is None


def test_check_leq_blames_the_terminal_assumption():
    reg = worked_registry()
    # r_2 < r_0 at witness 5 and r_0 <= r_3 assumed, so the chain claims
    # r_2 <= r_3; that is false, and blame lands on Assumed(0, 3) at
    # precision max(challenge 1, step witness 5) = 5
    ev = Step(5, Assumed(0, 3), 2)
    assert op_at(reg[2], reg[0], 5)
    result = check_leq(reg, ev, 1)
    assert result == Falsified((0, 3), 5)
    # the blamed precision is a genuine counterexample for the assumption
    extended = extend(empty_state(reg), 0, 3, 5)
    assert extended.entries == {(0, 3): 5}


def test_falsified_feeds_extend_soundly():
    rng = Random(99)
    reg = RealRegistry()
    values = [Fraction(rng.randint(-32, 32), 4) for _ in range(8)]
    while len(set(values)) != len(values):
        values = [Fraction(rng.randint(-32, 32), 4) for _ in range(8)]
    for q in values:
        reg.blurred(q)
    state = empty_state(reg)
    for i in range(8):
        for j in range(8):
            if values[j] < values[i]:
                result = check_leq(reg, Assumed(i, j), 40)
                assert result is not None and result.pair == (i, j)
                state = extend(state, *result.pair, result.witness)
    sound = is_sound(state)
    assert sound
    assert state.size == sum(1 for i in range(8) for j in range(8)
                             if values[j] < values[i])
