import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realearn import (
    InvalidNesting,
    RealRegistry,
    find_strict_witness,
    least_witness,
    op_at,
)
from realearn.oracle import separation_from_gap
from realearn.reals import _magnitude_exponent, _over_lcm, add, mul, sub

from support import random_real, random_table_prefix

rationals = st.fractions(min_value=-64, max_value=64, max_denominator=512)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_from_rational_is_degenerate_everywhere():
    reg = RealRegistry()
    r = reg.from_rational(Fraction(3, 7))
    for k in (0, 1, 5, 40):
        assert r.interval_at(k) == (Fraction(3, 7), Fraction(3, 7))


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

    r = reg.register(gen)
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
    assert r.interval_at(1) == (Fraction(1, 4), Fraction(3, 4))
    assert r.interval_at(2) == (Fraction(1, 2), Fraction(1, 2))


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
    if p >= q:
        assert find_strict_witness(r, s, 80) is None
    else:
        w = find_strict_witness(r, s, 80)
        assert w == separation_from_gap(q - p)
        assert op_at(r, s, w)
        assert w == 0 or not op_at(r, s, w - 1)


def test_op_at_needs_disjoint_intervals():
    reg = RealRegistry()
    r = reg.blurred(0)
    s = reg.blurred(1)
    # gap 1 is not > 2**0, so precision 0 cannot separate them
    assert not op_at(r, s, 0)
    assert op_at(r, s, 1)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_mixed_pairs_decide_by_limit(seed):
    rng = Random(seed)
    reg = RealRegistry()
    r, rv = random_real(reg, rng)
    s, sv = random_real(reg, rng)
    w = find_strict_witness(r, s, 80)
    if rv < sv:
        assert w is not None and op_at(r, s, w)
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
def test_add_sub_intervals_contain_exact_results(p, q, k):
    reg = RealRegistry()
    a, b = reg.blurred(p), reg.blurred(q)
    for real, exact in ((add(a, b), p + q), (sub(a, b), p - q)):
        lo, hi = real.interval_at(k)
        assert lo <= exact <= hi
        assert hi - lo <= Fraction(1, 2 ** k)


@settings(max_examples=60)
@given(rationals, rationals, st.integers(min_value=0, max_value=25))
def test_mul_intervals_contain_exact_results(p, q, k):
    reg = RealRegistry()
    prod = mul(reg.blurred(p), reg.blurred(q))
    lo, hi = prod.interval_at(k)
    assert lo <= p * q <= hi
    assert hi - lo <= Fraction(1, 2 ** k)


def test_arithmetic_on_mixed_constructors():
    rng = Random(7)
    reg = RealRegistry()
    for _ in range(50):
        a, av = random_real(reg, rng)
        b, bv = random_real(reg, rng)
        combined = add(mul(a, b), sub(a, b))
        exact = av * bv + (av - bv)
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

    assert least_witness(from_50, 256, 40) == 50
    assert probes[:6] == [40, 41, 42, 44, 48, 56]
    probes.clear()
    assert least_witness(from_50, 256, 60) == 50
    assert probes[:5] == [60, 59, 58, 56, 52]


def test_least_witness_edge_budgets():
    probes = []

    def never(k):
        probes.append(k)
        return False

    assert least_witness(never, -1) is None
    assert probes == []
    assert least_witness(never, 0) is None
    assert probes == [0]
    probes.clear()
    assert least_witness(never, 256) is None
    assert probes == [0, 1, 2, 4, 8, 16, 32, 64, 128, 256]
    assert least_witness(lambda k: True, 0) == 0
    assert least_witness(lambda k: True, 256) == 0


def _constructor_reals(reg, p, q):
    a, b = reg.blurred(p), reg.from_rational(q)
    table = reg.from_table([(p - 1, p), (p - Fraction(1, 2), p)], p)
    return [a, b, table, add(a, b), sub(table, a),
            mul(a, table), mul(sub(a, b), add(b, table))]


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
    prod = mul(reg.blurred(3), reg.blurred(Fraction(1, 3)))
    prod.interval_at(30)
    assert sorted(prod._cache) == [30]


def nested_real(gen):
    """A nested real from a crafted ``(lo, hi, d)`` generator."""
    real = RealRegistry().register(gen)
    real.nested = True
    return real


@pytest.mark.skipif(not __debug__, reason="neighbour checks are debug-only")
def test_random_access_checks_cached_neighbours():
    # a triple generator (k % 2, k % 2, 2): [0, 0] at even k, [1/2, 1/2]
    # at odd k, nested at no k
    r = nested_real(lambda k: (k % 2, k % 2, 2))
    r.interval_at(3)
    with pytest.raises(InvalidNesting) as exc:
        r.interval_at(2)
    assert (exc.value.k, exc.value.clause) == (3, "upper endpoint increases")
    with pytest.raises(InvalidNesting) as exc:
        r.interval_at(4)
    assert (exc.value.k, exc.value.clause) == (4, "lower endpoint decreases")


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
# 0 < lo, hi < 0, lo < 0 < hi, lo = 0 or hi = 0.
SIGNED = {
    "positive": lambda: RealRegistry().blurred(Fraction(7, 3)),
    "negative": lambda: RealRegistry().blurred(Fraction(-5, 3)),
    "straddling": lambda: RealRegistry().blurred(0),
    "zero": lambda: RealRegistry().from_rational(0),
    "from zero up": lambda: nested_real(lambda k: (0, 1, 2 << k)),
    "from zero down": lambda: nested_real(lambda k: (-1, 0, 2 << k)),
}


@pytest.mark.parametrize("left, right, equal", [
    ("positive", "negative", True), ("negative", "positive", True),
    ("negative", "straddling", False), ("zero", "positive", False)])
@pytest.mark.parametrize("k", [0, 7, 40])
def test_sums_give_the_lcm_triple(left, right, equal, k):
    a, b = SIGNED[left](), SIGNED[right]()
    alo, ahi, ad = a._at(k + 1)
    blo, bhi, bd = b._at(k + 1)
    sa, sb, d = _over_lcm(ad, bd)
    assert (ad == bd) == equal
    assert add(a, b)._at(k) == (alo * sa + blo * sb, ahi * sa + bhi * sb, d)
    assert sub(a, b)._at(k) == (alo * sa - bhi * sb, ahi * sa - blo * sb, d)


@pytest.mark.parametrize("left", sorted(SIGNED))
@pytest.mark.parametrize("right", sorted(SIGNED))
@pytest.mark.parametrize("k", [0, 7, 40])
def test_products_give_the_min_max_triple(left, right, k):
    a, b = SIGNED[left](), SIGNED[right]()
    shift = _magnitude_exponent(a) + _magnitude_exponent(b) + 2
    alo, ahi, ad = a._at(k + shift)
    blo, bhi, bd = b._at(k + shift)
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    assert mul(a, b)._at(k) == (min(products), max(products), ad * bd)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_raw_generator_nesting_is_checked_in_every_build(flags):
    code = (
        "from fractions import Fraction\n"
        "from realearn import InvalidNesting, RealRegistry\n"
        "r = RealRegistry().register("
        "lambda k: (Fraction(k % 2, 2), Fraction(k % 2, 2)))\n"
        "try:\n"
        "    r.interval_at(3)\n"
        "except InvalidNesting as exc:\n"
        "    print(exc.k, exc.clause)\n"
    )
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 upper endpoint increases\n"


# Reference: the Fraction kernel that the integer triples replace, kept
# as it was (constructors, arithmetic nodes and _magnitude_exponent).
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

    def add(self, a, b):
        def gen(k):
            alo, ahi = a.interval_at(k + 1)
            blo, bhi = b.interval_at(k + 1)
            return (alo + blo, ahi + bhi)

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


# Dyadic and non-dyadic values: 1/3, 5/7, k/2**j, ...
kernel_values = st.builds(
    Fraction, st.integers(min_value=-2 ** 12, max_value=2 ** 12),
    st.sampled_from([1, 2, 3, 5, 7, 9, 2 ** 10, 3 * 2 ** 5, 2 ** 40]))


@st.composite
def kernel_tables(draw):
    """A valid table prefix around a value, with odd denominators in the
    endpoints: ``[v - t_k / 2**(k+1), v + u_k / 2**(k+1)]`` with
    ``t_k, u_k`` in [0, 1] and at most twice their predecessors."""
    value = draw(kernel_values)
    shares = st.builds(Fraction, st.integers(min_value=0, max_value=15),
                       st.sampled_from([1, 3, 5, 15]))
    prefix, below, above = [], Fraction(1), Fraction(1)
    for k in range(draw(st.integers(min_value=0, max_value=6))):
        below = min(draw(shares), 1, 2 * below)
        above = min(draw(shares), 1, 2 * above)
        scale = Fraction(1, 2 ** (k + 1))
        prefix.append((value - below * scale, value + above * scale))
    return ("from_table", prefix, value)


kernel_leaves = st.one_of(
    st.tuples(st.just("from_rational"), kernel_values),
    st.tuples(st.just("blurred"), kernel_values),
    kernel_tables())

kernel_exprs = st.recursive(
    kernel_leaves,
    lambda inner: st.tuples(st.sampled_from(["add", "sub", "mul"]),
                            inner, inner),
    max_leaves=6)


ARITHMETIC = {"add": add, "sub": sub, "mul": mul}


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


@settings(max_examples=150, deadline=None)
@given(kernel_exprs, kernel_exprs,
       st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4))
def test_integer_kernel_matches_fraction_reference(e1, e2, levels):
    reg = RealRegistry()
    reals = [build_expr(reg, e1), build_expr(reg, e2)]
    ref = RefRegistry()
    refs = [build_expr(ref, e1), build_expr(ref, e2)]
    for real, expected in zip(reals, refs):
        assert _magnitude_exponent(real) == ref_magnitude_exponent(expected)
    for k in levels:
        for real, expected in zip(reals, refs):
            assert real.interval_at(k) == expected.interval_at(k)
        for i, j in ((0, 1), (1, 0), (0, 0)):
            assert op_at(reals[i], reals[j], k) == ref_op_at(refs[i], refs[j], k)
