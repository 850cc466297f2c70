import itertools
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realearn import (
    DegenerateInput,
    InvalidNesting,
    Left,
    Point,
    RealNum,
    RealRegistry,
    Right,
    decide_side,
    find_strict_witness,
    least_witness,
    op_at,
)
from realearn.oracle import separation_from_gap
from realearn.reals import (_affine_det2, _affine_difference, _affine_gap,
                            _affine_magnitude, _affine_real, _det2_at,
                            _det2_bound, _fraction, _magnitude_exponent,
                            _over_lcm, _product, det2, sub)

from support import det2_terms, random_real, random_table_prefix

rationals = st.fractions(min_value=-64, max_value=64, max_denominator=512)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_from_rational_is_degenerate_everywhere():
    reg = RealRegistry()
    r = reg.from_rational(Fraction(3, 7))
    for k in (0, 1, 5, 40):
        interval = r.interval_at(k)
        assert interval == (Fraction(3, 7), Fraction(3, 7))


@pytest.mark.parametrize("forms", [
    (6, "18/3", Fraction(6)),
    (0, "0/5", Fraction(0)),
    (-3, "-12/4", Fraction(-3)),
])
def test_constructors_take_every_form_of_a_rational_alike(forms):
    # an int, an unreduced "n/d" string and the equal Fraction, which is
    # taken as it is, give identical triples at every index; a rational
    # is the table with no prefix
    v = forms[0]
    prefix = [(Fraction(2 * v - 1, 2), f"{2 * v + 1}/2"),
              (f"{4 * v - 1}/4", v)]
    reg = RealRegistry()
    reals = [[reg.from_rational(q), reg.from_table((), q), reg.blurred(q),
              reg.from_table(prefix, q)] for q in forms]
    for k in range(65):
        rows = {tuple(r._at(k) for r in row) for row in reals}
        assert len(rows) == 1
        assert reals[0][0]._at(k) == reals[0][1]._at(k)
    # a constant n/d is the affine real (n, 0, d), as a table with no
    # prefix too
    for rational, table, _, _ in reals:
        assert rational._affine == table._affine == (v, 0, 1)
    exact = forms[2]
    taken = _fraction(exact)
    assert taken is exact

    class Rational(Fraction):
        pass

    # a subclass goes through Fraction(q), which makes an exact Fraction
    made = _fraction(Rational(exact))
    assert type(made) is Fraction


def test_blurred_interval_is_centered_with_exact_width():
    reg = RealRegistry()
    r = reg.blurred(Fraction(-5, 2))
    for k in (0, 3, 10):
        lo, hi = r.interval_at(k)
        assert hi - lo == Fraction(1, 2 ** k)
        assert lo + Fraction(1, 2 ** (k + 1)) == Fraction(-5, 2)


def test_intervals_memoized():
    reg = RealRegistry()
    calls = []

    def gen(k):
        calls.append(k)
        return (Fraction(0), Fraction(1, 2 ** k))

    r = reg.from_generator(gen)
    r.interval_at(4)
    r.interval_at(4)
    r.interval_at(2)
    assert calls == [0, 1, 2, 3, 4]


def test_registry_indexing():
    reg = RealRegistry()
    a = reg.from_rational(1)
    b = reg.blurred(2)
    assert len(reg) == 2
    assert reg[0] is a and reg[1] is b
    assert list(reg) == [a, b]
    assert (a.index, b.index) == (0, 1)


@pytest.mark.parametrize("prefix,tail,k,clause", [
    ([(Fraction(1), Fraction(0))], 0, 0, "lower endpoint above upper endpoint"),
    ([(Fraction(0), Fraction(2))], 1, 0, "width exceeds 2^-0"),
    ([(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1, 2))], 0,
     1, "lower endpoint decreases"),
    ([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(3, 2))], 1,
     1, "upper endpoint increases"),
    ([(Fraction(0), Fraction(1))], 2, 1, "tail outside final interval"),
])
def test_from_table_rejects_bad_tables(prefix, tail, k, clause):
    reg = RealRegistry()
    with pytest.raises(InvalidNesting) as exc:
        reg.from_table(prefix, tail)
    assert exc.value.k == k
    assert clause in str(exc.value)


def test_from_table_prefix_then_degenerate_tail():
    reg = RealRegistry()
    r = reg.from_table([(Fraction(0), Fraction(1)),
                        (Fraction(1, 4), Fraction(3, 4))], Fraction(1, 2))
    at_1, at_2 = r.interval_at(1), r.interval_at(2)
    assert at_1 == (Fraction(1, 4), Fraction(3, 4))
    assert at_2 == (Fraction(1, 2), Fraction(1, 2))


@given(rationals, st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40))
def test_nesting_invariants_hold_for_blurred(q, k1, k2):
    reg = RealRegistry()
    r = reg.blurred(q)
    lo1, hi1 = r.interval_at(k1)
    lo2, hi2 = r.interval_at(k2)
    if k1 <= k2:
        assert lo1 <= lo2 <= hi2 <= hi1
    assert hi1 - lo1 <= Fraction(1, 2 ** k1)


@given(rationals, rationals)
def test_blurred_strict_witness_is_the_separation_precision(p, q):
    reg = RealRegistry()
    r, s = reg.blurred(p), reg.blurred(q)
    w = find_strict_witness(r, s, 80)
    if p >= q:
        assert w is None
    else:
        assert w == separation_from_gap(q - p)
        at_w, below = op_at(r, s, w), w > 0 and op_at(r, s, w - 1)
        assert at_w and not below


def test_op_at_needs_disjoint_intervals():
    reg = RealRegistry()
    r = reg.blurred(0)
    s = reg.blurred(1)
    # gap 1 is not > 2**0, so precision 0 cannot separate them
    at_0, at_1 = op_at(r, s, 0), op_at(r, s, 1)
    assert not at_0
    assert at_1


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_mixed_pairs_decide_by_limit(seed):
    rng = Random(seed)
    reg = RealRegistry()
    r, rv = random_real(reg, rng)
    s, sv = random_real(reg, rng)
    w = find_strict_witness(r, s, 80)
    if rv < sv:
        seen = w is not None and op_at(r, s, w)
        assert seen
    else:
        assert w is None


def test_random_table_prefixes_are_valid():
    rng = Random(20260825)
    reg = RealRegistry()
    for _ in range(200):
        value = Fraction(rng.randint(-64, 64), rng.choice([1, 2, 4, 8]))
        prefix = random_table_prefix(value, rng, rng.randint(0, 8))
        r = reg.from_table(prefix, value)
        r.interval_at(12)


@given(rationals, rationals, st.integers(min_value=0, max_value=30))
def test_sub_intervals_contain_exact_results(p, q, k):
    reg = RealRegistry()
    lo, hi = sub(reg.blurred(p), reg.blurred(q)).interval_at(k)
    assert lo <= p - q <= hi
    assert hi - lo <= Fraction(1, 2 ** k)


@settings(max_examples=60)
@given(rationals, rationals, rationals, rationals,
       st.integers(min_value=0, max_value=25))
def test_det2_intervals_contain_exact_results(p, q, r, s, k):
    reg = RealRegistry()
    node = det2(*map(reg.blurred, (p, q, r, s)))
    lo, hi = node.interval_at(k)
    assert lo <= p * q - r * s <= hi
    assert hi - lo <= Fraction(1, 2 ** k)


def test_arithmetic_on_mixed_constructors():
    rng = Random(7)
    reg = RealRegistry()
    for _ in range(50):
        a, av = random_real(reg, rng)
        b, bv = random_real(reg, rng)
        c, cv = random_real(reg, rng)
        combined = det2(a, b, sub(b, a), c)
        exact = av * bv - (bv - av) * cv
        lo, hi = combined.interval_at(20)
        assert lo <= exact <= hi
        assert hi - lo <= Fraction(1, 2 ** 20)


def scan_least_witness(holds, k_max):
    """Reference: the linear scan that least_witness replaces."""
    for k in range(k_max + 1):
        if holds(k):
            return k
    return None


@given(st.integers(min_value=-3, max_value=300),
       st.one_of(st.none(), st.integers(min_value=0, max_value=310)))
def test_least_witness_matches_linear_scan(k_max, threshold):
    probes = []

    def holds(k):
        probes.append(k)
        return threshold is not None and k >= threshold

    found = least_witness(holds, k_max)
    assert all(0 <= k <= k_max for k in probes)
    assert len(probes) <= 2 * max(k_max, 0).bit_length() + 1
    assert found == scan_least_witness(holds, k_max)


def check_search_from(start, k_max, threshold):
    """Run least_witness from ``start`` on the predicate k >= threshold
    and check its answer, its probes and their number."""
    probes = []

    def holds(k):
        return threshold is not None and k >= threshold

    found = least_witness(lambda k: probes.append(k) or holds(k), k_max,
                          start)
    assert found == scan_least_witness(holds, k_max)
    assert all(0 <= k <= k_max for k in probes)
    first = min(max(start, 0), k_max)
    witness = k_max if found is None else found
    assert len(probes) <= 2 * abs(witness - first).bit_length() + 2


@given(st.integers(min_value=-3, max_value=300),
       st.one_of(st.none(), st.integers(min_value=0, max_value=310)),
       st.data())
def test_least_witness_from_any_start_matches_linear_scan(k_max, threshold,
                                                          data):
    start = data.draw(st.integers(min_value=-3, max_value=k_max + 3))
    check_search_from(start, k_max, threshold)


def test_least_witness_from_every_start_on_small_budgets():
    for k_max in range(-1, 25):
        for start in range(-3, k_max + 4):
            for threshold in (None, *range(k_max + 2)):
                check_search_from(start, k_max, threshold)


def test_least_witness_gallops_away_from_its_start():
    probes = []

    def from_50(k):
        probes.append(k)
        return k >= 50

    up = least_witness(from_50, 256, 40)
    assert up == 50
    assert probes[:6] == [40, 41, 42, 44, 48, 56]
    probes.clear()
    down = least_witness(from_50, 256, 60)
    assert down == 50
    assert probes[:5] == [60, 59, 58, 56, 52]


def test_least_witness_edge_budgets():
    probes = []

    def never(k):
        probes.append(k)
        return False

    found = least_witness(never, -1)
    assert found is None
    assert probes == []
    found = least_witness(never, 0)
    assert found is None
    assert probes == [0]
    probes.clear()
    found = least_witness(never, 256)
    assert found is None
    assert probes == [0, 1, 2, 4, 8, 16, 32, 64, 128, 256]
    found = [least_witness(lambda k: True, k_max) for k_max in (0, 256)]
    assert found == [0, 0]


def _constructor_reals(reg, p, q):
    a, b = reg.blurred(p), reg.from_rational(q)
    table = reg.from_table([(p - 1, p), (p - Fraction(1, 2), p)], p)
    return [a, b, table, sub(a, b), sub(table, a), det2(a, table, b, a),
            det2(sub(a, b), sub(b, table), table, b)]


@settings(max_examples=40)
@given(rationals, rationals, st.randoms(use_true_random=False))
def test_constructors_are_independent_of_read_order(p, q, rng):
    levels = list(range(40))
    expected = [[real.interval_at(k) for k in levels]
                for real in _constructor_reals(RealRegistry(), p, q)]
    shuffled = levels[:]
    rng.shuffle(shuffled)
    for order in (levels, levels[::-1], shuffled):
        reals = _constructor_reals(RealRegistry(), p, q)
        for k in order:
            for real in reals:
                real.interval_at(k)
        assert [[real.interval_at(k) for k in levels]
                for real in reals] == expected


def test_constructors_evaluate_only_the_requested_index():
    reg = RealRegistry()
    node = det2(reg.blurred(3), reg.blurred(Fraction(1, 3)),
                reg.from_rational(1), reg.from_rational(2))
    node.interval_at(30)
    assert sorted(node._cache) == [30]


def nested_real(gen):
    """A real from a crafted ``(lo, hi, d)`` generator."""
    return RealRegistry().register(gen)


@pytest.mark.skipif(not __debug__, reason="neighbour checks are debug-only")
def test_random_access_checks_cached_neighbours():
    # [0, 0] at the cached index 3 and [v/2, v/2] at the index read, so
    # each nesting clause fails against a cached k - 1 (read 4) and a
    # cached k + 1 (read 2, which k + 1 = 3 must nest in)
    for read, v, failure in (
            (4, -1, (4, "lower endpoint decreases")),
            (4, 1, (4, "upper endpoint increases")),
            (2, 1, (3, "lower endpoint decreases")),
            (2, -1, (3, "upper endpoint increases"))):
        r = nested_real(lambda k: (0, 0, 2) if k == 3 else (v, v, 2))
        r.interval_at(3)
        with pytest.raises(InvalidNesting) as exc:
            r.interval_at(read)
        assert (exc.value.k, exc.value.clause) == failure
        assert sorted(r._cache) == [3]


@pytest.mark.skipif(not __debug__, reason="nested-path checks are debug-only")
@pytest.mark.parametrize("gen, clause", [
    (lambda k: (1, 0, 1 << k), "lower endpoint above upper endpoint"),
    (lambda k: (0, 2, 1 << k), "width exceeds 2^-3"),
])
def test_random_access_checks_its_own_clauses(gen, clause):
    r = nested_real(gen)
    with pytest.raises(InvalidNesting) as exc:
        r.interval_at(3)
    assert (exc.value.k, exc.value.clause) == (3, clause)
    assert 3 not in r._cache


# Operands of known signs at every index read: [lo/d, hi/d] with
# 0 < lo, hi < 0, lo < 0 < hi, lo = 0 or hi = 0, each built in the
# registry given: a RealRegistry or, for the three blurred reals, the
# Fraction reference's.
SIGNED = {
    "positive": lambda reg: reg.blurred(Fraction(7, 3)),
    "negative": lambda reg: reg.blurred(Fraction(-5, 3)),
    "straddling": lambda reg: reg.blurred(0),
    "zero": lambda reg: reg.from_rational(0),
    "from zero up": lambda reg: reg.register(lambda k: (0, 1, 2 << k)),
    "from zero down": lambda reg: reg.register(lambda k: (-1, 0, 2 << k)),
}


@pytest.mark.parametrize("left, right, equal", [
    ("positive", "negative", True), ("negative", "positive", True),
    ("negative", "straddling", False), ("zero", "positive", False)])
@pytest.mark.parametrize("k", [0, 7, 40])
def test_sums_give_the_lcm_triple(left, right, equal, k):
    # over equal denominators too, which the closed-form difference of
    # two affine reals joins with no lcm: the same integers
    reg = RealRegistry()
    a, b = SIGNED[left](reg), SIGNED[right](reg)
    alo, ahi, ad = a._at(k + 1)
    blo, bhi, bd = b._at(k + 1)
    sa, sb, d = _over_lcm(ad, bd)
    assert (ad == bd) == equal
    triple = (alo * sa - bhi * sb, ahi * sa - blo * sb, d)
    joined = sub(a, b)._at(k)
    assert joined == triple
    if a._affine is not None and b._affine is not None:
        assert (a._affine[2] == b._affine[2]) == equal
        difference = _affine_difference(a._affine, b._affine)
        assert affine_triple(difference, k) == triple


def difference_tree(a, b, c, d, difference=sub):
    """The differences of a, b, c and d whose triples are compared,
    nested chains included: ``sub`` nodes of reals, or the
    :func:`_affine_difference` of ``(c, w, l)`` tuples."""
    return [difference(a, b), difference(b, a), difference(c, d),
            difference(d, c), difference(difference(a, b), difference(c, d)),
            difference(difference(d, a), difference(difference(b, c), a))]


def affine_triple(affine, k):
    """The triple at k of the affine real ``affine = (c, w, l)``."""
    c, w, l = affine
    return ((c << k) - w, (c << k) + w, l << k)


def measured(affine):
    """``affine`` with its magnitude exponent: the ``(c, w, l, e)`` that
    :func:`det2_terms` takes."""
    return (*affine, _affine_magnitude(affine))


# equal and unequal denominators, dyadic and non-dyadic
DENOMINATOR_SETS = [
    (3, 3, 3, 3), (1, 1, 2 ** 20, 2 ** 20), (3, 7, 3 * 2 ** 5, 1),
    (7, 3 * 2 ** 5, 2 ** 20, 3), (3 * 2 ** 5, 3 * 2 ** 5, 7, 7)]


def affine_values(denominators):
    """A positive, a negative, a zero and a large value, whose blurred
    reals are positive, negative, straddling and positive."""
    return [Fraction(n, m) for n, m in zip((5, -11, 0, 2 ** 19), denominators)]


@pytest.mark.parametrize("denominators", DENOMINATOR_SETS)
def test_affine_sums_give_the_triples_of_their_tree(denominators):
    # the closed-form difference of the blurred reals' (c, w, l) against
    # the generic sub nodes over the same reals, triple for triple
    reals = [RealRegistry().blurred(q) for q in affine_values(denominators)]
    nodes = difference_tree(*reals)
    tuples = difference_tree(*(real._affine for real in reals),
                             difference=_affine_difference)
    for node, affine in zip(nodes, tuples):
        assert node._affine is None
        for k in range(65):
            triple = node._at(k)
            assert triple == affine_triple(affine, k)


def test_an_affine_node_reads_no_operand():
    # the real of a nested difference of the blurred reals' tuples reads
    # none of them, and has the triples of the sub nodes over them
    reg = RealRegistry()
    a, b, c, d = (reg.blurred(Fraction(n, m))
                  for n, m in ((1, 3), (-2, 7), (5, 96), (9, 1)))
    node = _affine_real(reg.register, _affine_difference(
        _affine_difference(a._affine, b._affine),
        _affine_difference(c._affine, d._affine)))
    for k in (0, 5, 64, 3):
        node._at(k)
    assert sorted(node._cache) == [0, 3, 5, 64]
    assert [real._cache for real in (a, b, c, d)] == [{}] * 4
    tree = sub(sub(a, b), sub(c, d))
    assert all(tree._at(k) == triple for k, triple in node._cache.items())


def affine_factors(reals, difference):
    """The reals a, b, c (positive, negative, straddling) and their
    differences a - b, b - a and c - c (positive, negative, straddling),
    of the four reals a, b, c, d."""
    a, b, c, _ = reals
    return [a, b, c, difference(a, b), difference(b, a), difference(c, c)]


def equal_product_denominators(a, b, c, d, k):
    """Whether the two products that ``det2(a, b, c, d)`` joins at k
    have equal denominators, from its factors' triples at their shifts."""
    s_ab = _magnitude_exponent(a) + _magnitude_exponent(b) + 3
    s_cd = _magnitude_exponent(c) + _magnitude_exponent(d) + 3
    return (a._at(k + s_ab)[2] * b._at(k + s_ab)[2]
            == c._at(k + s_cd)[2] * d._at(k + s_cd)[2])


@pytest.mark.parametrize("denominators", DENOMINATOR_SETS)
def test_affine_det2_gives_the_triples_of_its_tree(denominators):
    # the closed form of the blurred reals' tuples against the generic
    # det2 over the same reals, triple for triple, and against the
    # Fraction reference
    values = affine_values(denominators)
    reg, ref = RealRegistry(), RefRegistry()
    blurred = [reg.blurred(q) for q in values]
    factors = affine_factors(blurred, sub)
    tuples = affine_factors([real._affine for real in blurred],
                            _affine_difference)
    refs = affine_factors([ref.blurred(q) for q in values], ref.sub)
    equal_denominators = set()
    # each factor in each position, in each sign case against each;
    # b * a has the denominator of a * b, and other products mostly not
    for i, j in itertools.product(range(6), repeat=2):
        for chosen in ((i, j, j, i), (i, j, (i + 1) % 6, (j + 2) % 6)):
            terms = det2_terms(*(measured(tuples[n]) for n in chosen))
            node = det2(*(factors[n] for n in chosen))
            tree = ref.det2(*(refs[n] for n in chosen))
            for k in range(65):
                triple = _det2_at(terms, k)
                assert triple == node._at(k)
                assert node.interval_at(k) == tree.interval_at(k)
            # P == Q exactly when the products' denominators are equal
            equal_denominators.add(equal_product_denominators(
                *(factors[n] for n in chosen), 0))
    assert equal_denominators == {True, False}


@st.composite
def measured_tuples(draw, scale=0):
    """A ``(c, w, l, e)``: its ``l`` one of a few denominators times
    ``2**scale``, so that equal ones are common, its ``w`` often the
    largest, ``l // 2``, as a blurred difference's is, its centre zero,
    straddling (``|c| < w``, so its interval at 0 contains zero) or any,
    and ``e`` its magnitude exponent."""
    l = draw(st.sampled_from([2, 6, 2 ** 13, 3 * 2 ** 7, 14])) << scale
    w = draw(st.one_of(st.just(l // 2), st.integers(0, l // 2)))
    kind = draw(st.integers(0, 5))
    c = draw(st.just(0) if kind == 0 else st.integers(-w, w) if kind == 1
             else st.integers(-2 ** 40, 2 ** 40))
    return measured((c, w, l))


@st.composite
def det2_factors(draw):
    """The four ``(c, w, l, e)`` of ``a * b - c * d``, at one scale from
    2^0 to 2^-200; in one draw of five, c and d take the centres and
    denominators of a and b, in either order, with radii of their own,
    so that the limit is zero."""
    scale = draw(st.sampled_from([0, 12, 60, 100, 200]))
    factors = draw(st.lists(measured_tuples(scale), min_size=4, max_size=4))
    if draw(st.integers(0, 4)) == 0:
        a, b = factors[:2] if draw(st.booleans()) else factors[1::-1]
        factors[2:] = [measured((x[0], draw(st.integers(0, x[2] // 2)), x[2]))
                       for x in (a, b)]
    return factors


def scan_outcome(node, k_max):
    """The outcome of a side decision of points 0, 1 and 2 whose
    orientation is ``node``, by a linear scan over its intervals."""
    for k in range(k_max + 1):
        lo, hi, _ = node._at(k)
        if lo > 0 or hi < 0:
            return (Left if lo > 0 else Right)(k)
    return (DegenerateInput,
            f"no side witness for points (0, 1, 2) within precision {k_max}")


def decide_outcome(*args):
    """What :func:`decide_side` returns, or its failure's type and text."""
    try:
        return decide_side(*args)
    except DegenerateInput as exc:
        return DegenerateInput, str(exc)


def factor_limit(factors):
    """The limit ``a * b - c * d`` of four ``(c, w, l, e)``."""
    (ca, _, la, _), (cb, _, lb, _), (cc, _, lc, _), (cd, _, ld, _) = factors
    return Fraction(ca * cb, la * lb) - Fraction(cc * cd, lc * ld)


def sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=200, deadline=None)
@given(det2_factors())
def test_the_det2_bound_is_where_the_integers_prove_a_side(factors):
    # lead is 0 exactly for a zero limit, and otherwise has the limit's
    # sign; built terms are the reference's and their lead is the limit
    # over the node's denominator at 0, and a bound that the limit alone
    # settles builds none; the node's interval at the bound excludes zero
    # on lead's side, and the bound is the least k that passes the
    # integer test of the reference's terms; a side decision of points
    # whose differences are the four tuples has the linear scan's
    # outcome from every start and within every budget
    terms, lead, bound = _det2_bound(*factors, 2 ** 12)
    reference = det2_terms(*factors)
    limit = factor_limit(factors)
    assert sign(lead) == sign(limit)
    if terms is None:
        assert not lead or bound == 0
    else:
        assert terms == reference
        assert Fraction(lead, terms[-1]) == limit
    node = det2(*(_affine_real(partial(RealNum, None), x[:3])
                  for x in factors))
    if lead:
        lo, hi, _ = _det2_at(reference, bound)
        assert lo > 0 if lead > 0 else hi < 0
        (ca, wa, _, _), (cb, wb, _, _), (cc, wc, _, _), (cd, wd, _, _) = \
            factors
        _, _, s_ab, sp, _, _, _, _, s_cd, sq = reference[2:12]
        spread = ((sp * (abs(ca) * wb + abs(cb) * wa) << s_ab)
                  + (sq * (abs(cc) * wd + abs(cd) * wc) << s_cd))
        slack = sp * wa * wb + sq * wc * wd
        size = abs(limit * reference[-1])
        assert size.denominator == 1
        size = size.numerator
        proven = [k for k in range(bound + 1)
                  if (size << 2 * k) - (spread << k) > slack]
        assert proven == [bound]
        witness = scan_outcome(node, bound).witness
        limits = [-1, 0, witness - 1, witness, 256]
    else:
        assert bound == 2 ** 12 + 1
        limits = [-1, 0, 256]
    for k_max in limits:
        clamped = _det2_bound(*factors, k_max)
        assert clamped[1:] == (lead, min(bound, k_max + 1))
    reg = RealRegistry()
    p, q, r = (Point(i, reg.from_rational(0), reg.from_rational(0))
               for i in range(3))
    # decide_side(p, q, r) takes the bound of (q.x - p.x, r.y - p.y,
    # r.x - p.x, q.y - p.y)
    a, b, c, d = factors
    differences = {(0, 1): (a, d), (0, 2): (c, b)}
    for k_max in limits:
        expected = scan_outcome(node, k_max)
        for start in range(81):
            decided = decide_outcome(p, q, r, k_max, differences, start)
            assert decided == expected


def reference_det2_bound(a, b, c, d, k_max):
    """The reference bound, with no test of the limit first: the full
    terms, ``lead`` and the bound search, for every input."""
    terms = det2_terms(a, b, c, d)
    ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, _ = terms
    lead = (sp * ca * cb << 2 * s_ab) - (sq * cc * cd << 2 * s_cd)
    if not lead:
        return terms, 0, k_max + 1
    spread = ((sp * (abs(ca) * wb + abs(cb) * wa) << s_ab)
              + (sq * (abs(cc) * wd + abs(cd) * wc) << s_cd))
    slack = sp * wa * wb + sq * wc * wd
    size = abs(lead)
    k = 0
    if size - spread <= slack:
        n = size.bit_length()
        k = max(1, spread.bit_length() - n, (slack.bit_length() - n + 1) // 2)
        while k <= k_max and (size << 2 * k) - (spread << k) <= slack:
            k += 1
    return terms, lead, min(k, k_max + 1)


def scaled_tuple(value, w, m):
    """The ``(c, w, l, e)`` of centre ``value`` over ``l = m * d`` for
    ``value``'s denominator ``d``, with radius ``w`` clamped to
    ``l // 2``."""
    l = value.denominator * m
    return measured((value.numerator * m, min(w, l // 2), l))


@st.composite
def half_limit_factors(draw):
    """Four ``(c, w, l, e)`` whose limit is ``1/2``, or just above or
    just below it, in size: c, sometimes zero, and d drawn as any
    factors are, b of value ``2**u`` with a radius of its own, and a the
    value that puts the limit there, so that some draws have every
    ``e`` 0 and some not."""
    scale = draw(st.sampled_from([0, 12, 60]))
    c, d = draw(st.lists(measured_tuples(scale), min_size=2, max_size=2))
    if draw(st.booleans()):
        c = measured((0, c[1], c[2]))
    step = Fraction(1, draw(st.sampled_from([1, 3])) << draw(
        st.integers(4, 80)))
    limit = (Fraction(1, 2) + draw(st.integers(-2, 2)) * step) * draw(
        st.sampled_from([1, -1]))
    beta = Fraction(2) ** draw(st.integers(-1, 3))
    target = limit + factor_limit([c, d, (0, 0, 1, 0), (0, 0, 1, 0)])
    m = draw(st.sampled_from([1, 2, 3, 2 ** 12]))
    a = scaled_tuple(target / beta, draw(st.integers(0, 2 ** 13)), m)
    b = scaled_tuple(beta, draw(st.sampled_from([0, 1, 2 ** 12])), m)
    return [a, b, c, d]


@st.composite
def unit_tuples(draw, large=False):
    """A ``(c, w, l, e)`` at most 1 in size, so ``e == 0``: when
    ``large``, its centre at least ``3/4`` in size."""
    l = draw(st.sampled_from([2, 6, 2 ** 13, 3 * 2 ** 7, 14, 2 ** 60]))
    w = draw(st.integers(0, l // 4))
    if large:
        c = draw(st.integers(-(-3 * l // 4), l - w)) * draw(
            st.sampled_from([1, -1]))
    else:
        c = draw(st.integers(w - l, l - w))
    return measured((c, w, l))


@st.composite
def unit_limit_factors(draw):
    """Four ``(c, w, l, e)``, every one at most 1 in size, whose limit
    is in ``(1/2, 2]`` in size: a and b at least 3/4, and c * d of the
    other sign from a * b, or zero."""
    a, b = draw(st.lists(unit_tuples(large=True), min_size=2, max_size=2))
    c, d = draw(st.lists(unit_tuples(), min_size=2, max_size=2))
    if (a[0] * b[0] > 0) == (c[0] * d[0] > 0):
        c = measured((-c[0], c[1], c[2]))
    return [a, b, c, d]


def excludes_zero(terms, k):
    lo, hi, _ = _det2_at(terms, k)
    return lo > 0 or hi < 0


@settings(max_examples=300, deadline=None)
@given(st.one_of(det2_factors(), half_limit_factors(), unit_limit_factors()))
def test_the_limit_first_bound_is_the_reference_bound(factors):
    # the limit-first bound gives the reference's bound and lead's sign
    # within every budget, and when it builds terms, the reference's
    # terms and lead; it builds none exactly when the limit is zero or
    # some factor has e > 0 and the limit is above 1/2 in size
    limit = factor_limit(factors)
    positive = any(e > 0 for *_, e in factors)
    shortcut = limit == 0 or positive and abs(limit) > Fraction(1, 2)
    terms, lead, bound = reference_det2_bound(*factors, 2 ** 12)
    if lead:
        witness = least_witness(partial(excludes_zero, terms), bound)
        limits = [-2, -1, 0, witness - 1, witness, 256]
    else:
        limits = [-2, -1, 0, 256]
    for k_max in limits:
        expected = reference_det2_bound(*factors, k_max)
        decided = _det2_bound(*factors, k_max)
        assert sign(decided[1]) == sign(expected[1]) == sign(limit)
        assert decided[2] == expected[2]
        assert (decided[0] is None) == shortcut
        if decided[0] is not None:
            assert decided == expected


def test_an_affine_det2_reads_no_factor():
    reg = RealRegistry()
    a, b, c, d = (reg.blurred(Fraction(n, m))
                  for n, m in ((1, 3), (-2, 7), (5, 96), (9, 1)))
    ta, tb, tc, td = (real._affine for real in (a, b, c, d))
    factors = [_affine_difference(ta, tb), _affine_difference(tc, td), ta,
               _affine_difference(td, tb)]
    node = _affine_det2(det2_terms(*map(measured, factors)))
    for k in (0, 5, 64, 3):
        node._at(k)
    assert sorted(node._cache) == [0, 3, 5, 64]
    assert [real._cache for real in (a, b, c, d)] == [{}] * 4


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2), Fraction(1),
                               Fraction(-3, 2), Fraction(2 ** 19, 3),
                               Fraction(-2 ** 40 + 1, 96)])
def test_affine_magnitude_is_read_in_closed_form(q):
    # the closed form of a blurred real's tuple and of the differences of
    # tuples is the magnitude that the generic nodes read from index 0
    reg = RealRegistry()
    real, other = reg.blurred(q), reg.blurred(Fraction(7, 5))
    pairs = [(real, real._affine),
             (sub(real, other), _affine_difference(real._affine, other._affine)),
             (sub(other, real), _affine_difference(other._affine, real._affine))]
    for node, affine in pairs:
        read = _magnitude_exponent(node)
        assert read == _affine_magnitude(affine)


MIXED = {
    "blurred": lambda reg: reg.blurred(Fraction(-4, 9)),
    "rational": lambda reg: reg.from_rational(Fraction(2, 3)),
    "table": lambda reg: reg.from_table([(0, 1), (Fraction(1, 3), "2/3")],
                                        Fraction(1, 2)),
    "product": lambda reg: det2(reg.blurred(3), reg.blurred(Fraction(1, 7)),
                                reg.blurred(1), reg.blurred(Fraction(1, 7))),
}


@pytest.mark.parametrize("other", sorted(MIXED))
@pytest.mark.parametrize("op", [sub])
@pytest.mark.parametrize("k", [0, 9])
def test_a_mixed_sum_reads_its_operands_at_the_next_index(other, op, k):
    # a blurred real against any other, a blurred one included: sub has
    # one path, which reads both operands at k + 1
    reg = RealRegistry()
    for a, b in ((reg.blurred(Fraction(5, 7)), MIXED[other](reg)),
                 (MIXED[other](reg), reg.blurred(Fraction(5, 7)))):
        node = op(a, b)
        assert node._affine is None
        node._at(k)
        assert sorted(a._cache) == sorted(b._cache) == [k + 1]


@pytest.mark.parametrize("other", sorted(MIXED))
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("k", [0, 9])
def test_a_mixed_det2_reads_its_factors_at_their_shift(other, position, k):
    # blurred factors with one other factor, or four blurred ones: det2
    # has one path, which reads each factor's magnitude at index 0 and
    # its triple at the product's shift
    reg = RealRegistry()
    factors = [reg.blurred(Fraction(n, m))
               for n, m in ((5, 7), (-2, 3), (11, 96), (1, 1))]
    factors[position] = MIXED[other](reg)
    s_ab = _magnitude_exponent(factors[0]) + _magnitude_exponent(factors[1]) + 3
    s_cd = _magnitude_exponent(factors[2]) + _magnitude_exponent(factors[3]) + 3
    det2(*factors)._at(k)
    for n, real in enumerate(factors):
        shift = s_ab if n < 2 else s_cd
        assert sorted(real._cache) == [0, k + shift]


@pytest.mark.parametrize("left", sorted(SIGNED))
@pytest.mark.parametrize("right", sorted(SIGNED))
@pytest.mark.parametrize("k", [0, 7, 40])
def test_products_give_the_min_max_triple(left, right, k):
    # the numerators of the product over the product of the
    # denominators, which the caller multiplies
    reg = RealRegistry()
    a, b = SIGNED[left](reg)._at(k), SIGNED[right](reg)._at(k)
    alo, ahi, _ = a
    blo, bhi, _ = b
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    product = _product(alo, ahi, blo, bhi)
    assert product == (min(products), max(products))


SIGNS = ("positive", "negative", "straddling")


@pytest.mark.parametrize("left", SIGNS)
@pytest.mark.parametrize("right", SIGNS)
def test_det2_gives_the_triples_of_its_tree(left, right):
    # a * b in each of its nine sign cases against c * d in each of
    # theirs, against the Fraction reference; equal sign cases give
    # equal product denominators, and factors of other magnitudes give
    # other shifts and denominators
    reg, ref = RealRegistry(), RefRegistry()
    equal_denominators = set()
    for c_sign in SIGNS:
        for d_sign in SIGNS:
            signs = (left, right, c_sign, d_sign)
            factors = [SIGNED[sign](reg) for sign in signs]
            node = det2(*factors)
            tree = ref.det2(*(SIGNED[sign](ref) for sign in signs))
            for k in range(65):
                interval = node.interval_at(k)
                assert interval == tree.interval_at(k)
                equal_denominators.add(equal_product_denominators(*factors, k))
    assert equal_denominators == {True, False}


# one bad prefix per clause of _check_interval, and the (k, clause) it raises
BAD_PREFIXES = [
    ([(1, 0)], "0 lower endpoint above upper endpoint"),
    ([(0, 2)], "0 width exceeds 2^-0"),
    ([(0, 1), (-1, Fraction(-1, 2))], "1 lower endpoint decreases"),
    ([(0, 1), (1, Fraction(3, 2))], "1 upper endpoint increases"),
]


@pytest.mark.parametrize("flags, prefix, error", [
    pytest.param(flags, prefix, error,
                 id=f"flags{i}" if prefix is None else f"flags{i}-{error}")
    for prefix, error in [(None, "1 upper endpoint increases"), *BAD_PREFIXES]
    for i, flags in enumerate(([], ["-O"]))])
def test_raw_generator_nesting_is_checked_in_every_build(flags, prefix, error):
    # with no prefix, a generator nested at no odd k; with one, a
    # generator that reads the prefix and then 0, and raises the
    # (k, clause) that from_table raises at construction
    if prefix is None:
        gen = "lambda k: (Fraction(k % 2, 2), Fraction(k % 2, 2))"
        table = ""
    else:
        gen = f"lambda k: {prefix!r}[k] if k < {len(prefix)} else (0, 0)"
        table = (
            "try:\n"
            f"    RealRegistry().from_table({prefix!r}, 0)\n"
            "except InvalidNesting as exc:\n"
            "    print(exc.k, exc.clause)\n"
        )
    code = (
        "from fractions import Fraction\n"
        "from realearn import InvalidNesting, RealRegistry\n"
        f"r = RealRegistry().from_generator({gen})\n"
        "try:\n"
        "    r.interval_at(3)\n"
        "except InvalidNesting as exc:\n"
        "    print(exc.k, exc.clause)\n"
    ) + table
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (error + "\n") * (1 if prefix is None else 2)


# Reference: the Fraction kernel that the integer triples replace, kept
# as it was (constructors, the nodes that sub and det2 need, and
# _magnitude_exponent); its det2 is the node tree
# sub(mul(a, b), mul(c, d)), whose products are read at k + 1.
# Each reference real is read only at the indices asked, as nested
# reals are.

class RefReal:
    def __init__(self, gen):
        self._gen = gen
        self._cache = {}

    def interval_at(self, k):
        if k not in self._cache:
            self._cache[k] = self._gen(k)
        return self._cache[k]


def ref_op_at(r, s, k):
    return r.interval_at(k)[1] < s.interval_at(k)[0]


def ref_magnitude_exponent(x):
    """Smallest c >= 0 such that 2**c bounds |x| at index 0."""
    lo, hi = x.interval_at(0)
    m = max(abs(lo), abs(hi))
    if m <= 1:
        return 0
    c = max(0, m.numerator.bit_length() - m.denominator.bit_length() - 1)
    while 2 ** c < m:
        c += 1
    return c


class RefRegistry:
    def from_rational(self, q):
        value = Fraction(q)

        def gen(k):
            return (value, value)

        return RefReal(gen)

    def blurred(self, q):
        value = Fraction(q)

        def gen(k):
            blur = Fraction(1, 2 ** (k + 1))
            return (value - blur, value + blur)

        return RefReal(gen)

    def from_table(self, prefix, tail):
        intervals = [(Fraction(lo), Fraction(hi)) for lo, hi in prefix]
        tail_value = Fraction(tail)

        def gen(k):
            if k < len(intervals):
                return intervals[k]
            return (tail_value, tail_value)

        return RefReal(gen)

    def from_generator(self, gen):
        return RefReal(gen)

    def sub(self, a, b):
        def gen(k):
            alo, ahi = a.interval_at(k + 1)
            blo, bhi = b.interval_at(k + 1)
            return (alo - bhi, ahi - blo)

        return RefReal(gen)

    def mul(self, a, b):
        shift = ref_magnitude_exponent(a) + ref_magnitude_exponent(b) + 2

        def gen(k):
            alo, ahi = a.interval_at(k + shift)
            blo, bhi = b.interval_at(k + shift)
            products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            return (min(products), max(products))

        return RefReal(gen)

    def det2(self, a, b, c, d):
        return self.sub(self.mul(a, b), self.mul(c, d))


# Dyadic and non-dyadic values: 1/3, 5/7, k/2**j, ...
kernel_values = st.builds(
    Fraction, st.integers(min_value=-2 ** 12, max_value=2 ** 12),
    st.sampled_from([1, 2, 3, 5, 7, 9, 2 ** 10, 3 * 2 ** 5, 2 ** 40]))


@st.composite
def kernel_tables(draw, min_depth=0):
    """A valid table prefix around a value, with odd denominators in the
    endpoints: ``[v - t_k / 2**(k+1), v + u_k / 2**(k+1)]`` with
    ``t_k, u_k`` in [0, 1] and at most twice their predecessors, of
    ``min_depth`` to 6 intervals.  With no interval the table is a
    constant, an affine real."""
    value = draw(kernel_values)
    shares = st.builds(Fraction, st.integers(min_value=0, max_value=15),
                       st.sampled_from([1, 3, 5, 15]))
    prefix, below, above = [], Fraction(1), Fraction(1)
    for k in range(draw(st.integers(min_value=min_depth, max_value=6))):
        below = min(draw(shares), 1, 2 * below)
        above = min(draw(shares), 1, 2 * above)
        scale = Fraction(1, 2 ** (k + 1))
        prefix.append((value - below * scale, value + above * scale))
    return ("from_table", prefix, value)


def raw_generator(value, share):
    """The ``from_generator`` leaf of a raw generator of rational pairs
    around ``value``, lopsided by ``share`` in [0, 1]:
    ``[v - share / 2**k, v + (1 - share) / 2**k]``."""
    def gen(k):
        scale = Fraction(1, 2 ** k)
        return (value - share * scale, value + (1 - share) * scale)

    return ("from_generator", gen)


kernel_leaves = st.one_of(
    st.tuples(st.just("from_rational"), kernel_values),
    st.tuples(st.just("blurred"), kernel_values),
    kernel_tables(),
    st.builds(raw_generator, kernel_values,
              st.builds(Fraction, st.integers(min_value=0, max_value=15),
                        st.just(15))))

kernel_exprs = st.recursive(
    kernel_leaves,
    lambda inner: st.one_of(
        st.tuples(st.just("sub"), inner, inner),
        st.tuples(st.just("det2"), inner, inner, inner, inner)),
    max_leaves=6)


ARITHMETIC = {"sub": sub, "det2": det2}


def build_expr(reg, expr):
    """Build the real each tuple names, operands first.  Constructors
    are registry methods.  Arithmetic is a method of the reference
    registry and a :mod:`realearn.reals` function otherwise."""
    name, *args = expr
    if name in ARITHMETIC:
        args = [build_expr(reg, arg) for arg in args]
        if isinstance(reg, RealRegistry):
            return ARITHMETIC[name](*args)
    return getattr(reg, name)(*args)


# Every leaf blurred: expressions that build_affine computes through the
# tuple functions, and build_expr through the generic nodes.
affine_differences = st.recursive(
    st.tuples(st.just("blurred"), kernel_values),
    lambda inner: st.tuples(st.just("sub"), inner, inner),
    max_leaves=4)

affine_exprs = st.one_of(
    affine_differences,
    st.tuples(st.just("det2"), affine_differences, affine_differences,
              affine_differences, affine_differences))


def affine_of(expr):
    """The ``(c, w, l)`` of an expression of ``affine_differences``: a
    blurred real's own, or the :func:`_affine_difference` of its
    operands'."""
    name, *args = expr
    if name == "blurred":
        return RealRegistry().blurred(*args)._affine
    return _affine_difference(*map(affine_of, args))


def build_affine(reg, expr):
    """The real of an expression of ``affine_exprs`` from the tuple
    functions: the affine real of a difference, or the
    :func:`_affine_det2` node of four."""
    name, *args = expr
    if name == "det2":
        return _affine_det2(det2_terms(*(measured(affine_of(arg))
                                         for arg in args)))
    return _affine_real(reg.register, affine_of(expr))


kernel_levels = st.lists(st.integers(min_value=0, max_value=300),
                         min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(kernel_exprs, kernel_exprs, kernel_levels)
def test_integer_kernel_matches_fraction_reference(e1, e2, levels):
    check_against_reference(e1, e2, levels)


@settings(max_examples=150, deadline=None)
@given(affine_exprs, affine_exprs, kernel_levels)
def test_affine_closed_forms_match_fraction_reference(e1, e2, levels):
    check_against_reference(e1, e2, levels, build_affine)
    check_against_reference(e1, e2, levels)


def check_against_reference(e1, e2, levels, build=build_expr):
    """The reals that ``build`` makes of two expressions and their
    Fraction references have the same magnitude exponents, intervals
    and ``op_at`` answers."""
    reg = RealRegistry()
    reals = [build(reg, e1), build(reg, e2)]
    ref = RefRegistry()
    refs = [build_expr(ref, e1), build_expr(ref, e2)]
    for real, expected in zip(reals, refs):
        assert _magnitude_exponent(real) == ref_magnitude_exponent(expected)
    for k in levels:
        for real, expected in zip(reals, refs):
            assert real.interval_at(k) == expected.interval_at(k)
        for i, j in ((0, 1), (1, 0), (0, 0)):
            assert op_at(reals[i], reals[j], k) == ref_op_at(refs[i], refs[j], k)


# The bound m = max |endpoint| and the denominator d of index 0 at the
# edges of the closed form: m <= d, m == d << c, m == (d << c) + 1 and
# one below it, with intervals above, around and below zero.
AFFINE_MAGNITUDES = [  # (c, w, l), the magnitude exponent
    ((0, 1, 2), 0), ((1, 1, 2), 0), ((-1, 1, 2), 0),
    ((2, 1, 2), 1), ((-2, 1, 2), 1),
    ((6, 2, 4), 1), ((-6, 2, 4), 1), ((5, 2, 4), 1), ((13, 3, 8), 1),
    ((7, 2, 4), 2), ((-7, 2, 4), 2),
    ((30, 2, 4), 3), ((-30, 2, 4), 3),
    ((31, 2, 4), 4), ((-31, 2, 4), 4)]
TABLE_MAGNITUDES = [  # the interval at index 0, the magnitude exponent
    (("1/3", "2/3"), 0), (("-1", "0"), 0), (("-1/3", "1/3"), 0),
    (("1/3", "4/3"), 1), (("-4/3", "-1/3"), 1),
    (("5/3", "2"), 1), (("-2", "-5/3"), 1), (("3", "4"), 2),
    (("-4", "-3"), 2), (("2", "7/3"), 2), (("-7/3", "-2"), 2),
    (("4", "5"), 3), (("-5", "-4"), 3)]


@pytest.mark.parametrize("affine, expected", AFFINE_MAGNITUDES)
def test_affine_magnitude_exponent_at_its_edges(affine, expected):
    c, w, l = affine
    real = _affine_real(RealRegistry().register, affine)
    twin = RefReal(lambda k: (Fraction(c - w, l), Fraction(c + w, l)))
    closed, read = _affine_magnitude(affine), _magnitude_exponent(real)
    assert closed == read == ref_magnitude_exponent(twin) == expected


@pytest.mark.parametrize("interval, expected", TABLE_MAGNITUDES)
def test_table_magnitude_exponent_at_its_edges(interval, expected):
    lo, hi = map(Fraction, interval)
    real = RealRegistry().from_table([(lo, hi)], lo)
    twin = RefRegistry().from_table([(lo, hi)], lo)
    read = _magnitude_exponent(real)
    assert read == ref_magnitude_exponent(twin) == expected


# The closed forms of two affine reals against the comparison of their
# triples, which is what op_at and find_strict_witness read for any
# other pair.

def interval_op_at(r, s, k):
    """``op_at`` from the two reals' ``(lo, hi, d)`` triples at k."""
    _, r_hi, r_d = r._at(k)
    s_lo, _, s_d = s._at(k)
    return r_hi * s_d < s_lo * r_d


witness_budgets = st.one_of(st.sampled_from([-1, 0, 3, 40, 256]),
                            st.integers(min_value=-2, max_value=100))


@st.composite
def affine_pairs(draw):
    """Two affine reals, blurred values or reals of the
    :func:`_affine_difference` of their tuples: two drawn ones, one real
    twice, a drawn real and a nested chain of differences with the same
    limit, ``(r - x) - (0 - x)``, or blurred reals ``2**-j`` apart,
    whose intervals touch at k = j; or a rational, ``(n, 0, d)``, and a
    blurred real, drawn or ``2**-j`` above it, touching it at k = j - 1."""
    reg = RealRegistry()
    kind = draw(st.sampled_from(["drawn", "same", "equal limit", "touching",
                                 "rational", "rational touching"]))
    if kind.endswith("touching"):
        value, j = draw(kernel_values), draw(st.integers(0, 90))
        below = reg.blurred if kind == "touching" else reg.from_rational
        return below(value), reg.blurred(value + Fraction(1, 2 ** j))
    if kind == "rational":
        return reg.from_rational(draw(kernel_values)), \
            reg.blurred(draw(kernel_values))
    r = _affine_real(reg.register, affine_of(draw(affine_differences)))
    if kind == "same":
        return r, r
    s = affine_of(draw(affine_differences))
    if kind == "equal limit":
        x, zero = s, reg.blurred(0)._affine
        s = _affine_difference(_affine_difference(r._affine, x),
                               _affine_difference(zero, x))
    return r, _affine_real(reg.register, s)


@settings(max_examples=200, deadline=None)
@given(affine_pairs(), witness_budgets)
def test_affine_comparisons_are_closed_forms(pair, k_max):
    r, s = pair
    assert r._affine is not None and s._affine is not None
    levels = range(81)
    orders = [(r, s), (s, r)]
    answers = [[op_at(a, b, k) for k in levels] for a, b in orders]
    witnesses = [find_strict_witness(a, b, k_max) for a, b in orders]
    # no interval was read
    assert r._cache == {} and s._cache == {}
    for (a, b), answer, witness in zip(orders, answers, witnesses):
        assert answer == [interval_op_at(a, b, k) for k in levels]
        assert witness == least_witness(
            lambda k: interval_op_at(a, b, k), k_max)


def affine_edges():
    """``(gap, spread, witness)``: ``G`` and ``S`` at the edges of the
    least k with ``G << k > S``, one below ``G << m``, at it and one
    above it, and ``S = 0``."""
    for gap in (1, 3, 2 ** 40 + 7):
        for m in (0, 1, 4, 70):
            if gap > 1 or m > 0:  # 1 << 0 plus 1 is 2, two bits
                yield from ((gap, (gap << m) - 1, m), (gap, gap << m, m + 1),
                            (gap, (gap << m) + 1, m + 1))
        yield gap, 0, 0


@pytest.mark.parametrize("gap, spread, witness", list(affine_edges()))
def test_affine_witness_at_its_edges(gap, spread, witness):
    # the exact 0, (0, 0, 1), below the affine real of centre gap/l and
    # radius spread / (l * 2**k): its G is gap and its S is spread
    register = RealRegistry().register
    r = _affine_real(register, (0, 0, 1))
    s = _affine_real(register, (gap, spread, max(1, 2 * spread)))
    order = _affine_gap(r._affine, s._affine)
    assert order == (gap, spread)
    budgets = (witness - 1, witness, witness + 5, -1)
    expected = [witness if witness <= k_max else None for k_max in budgets]
    below = [find_strict_witness(r, s, k_max) for k_max in budgets]
    above = [find_strict_witness(s, r, k_max) for k_max in budgets]
    assert below == expected
    assert above == [None] * 4
    assert r._cache == {} and s._cache == {}
    assert [least_witness(lambda k: interval_op_at(r, s, k), k_max)
            for k_max in budgets] == expected


# A real that is not affine: a table with a prefix, a raw generator or
# an orientation of affine reals.  A rational is affine.
non_affine_exprs = st.one_of(
    kernel_tables(min_depth=1),
    st.builds(raw_generator, kernel_values,
              st.builds(Fraction, st.integers(min_value=0, max_value=15),
                        st.just(15))),
    st.tuples(st.just("det2"), affine_differences, affine_differences,
              affine_differences, affine_differences))


@settings(max_examples=150, deadline=None)
@given(affine_differences, non_affine_exprs, st.booleans(), witness_budgets,
       st.lists(st.integers(min_value=0, max_value=80), min_size=1,
                max_size=4))
def test_mixed_comparisons_read_intervals(affine, other, affine_first, k_max,
                                          levels):
    reg = RealRegistry()
    a, b = build_affine(reg, affine), build_expr(reg, other)
    assert a._affine is not None and b._affine is None
    r, s = (a, b) if affine_first else (b, a)
    for k in levels:
        answer = op_at(r, s, k)
        assert answer == interval_op_at(r, s, k)
        assert k in r._cache and k in s._cache
    witness = find_strict_witness(r, s, k_max)
    assert witness == least_witness(lambda k: interval_op_at(r, s, k), k_max)
