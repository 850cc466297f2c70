from fractions import Fraction
from functools import partial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realearn import (
    DegenerateInput,
    Left,
    NoWitnessFound,
    Point,
    RealRegistry,
    Right,
    decide_side,
    find_strict_witness,
    least_witness,
    op_at,
    orientation_real,
    three_points,
)
import realearn.reals
from realearn.oracle import exact_orientation
from realearn.reals import (InvalidNesting, RealNum, _affine_det2,
                            _affine_difference, _affine_magnitude,
                            _det2_bound, det2, sub)

from support import (det2_terms, general_position_points, one_interval_table,
                     random_real, random_table_prefix, register_points)


# coordinate kinds: rationals and blurred reals are affine, so their
# side decisions take the tuple path; one-interval tables are not, so
# theirs search the generic det2 node from a start
KINDS = ["rational", "blurred", "table"]


def simple_points(coords, blurred=False, table=False):
    reg = RealRegistry()
    if table:
        ctor = partial(one_interval_table, reg)
    else:
        ctor = reg.blurred if blurred else reg.from_rational
    ys = [ctor(Fraction(y)) for _, y in coords]
    xs = [ctor(Fraction(x)) for x, _ in coords]
    return [Point(i, xs[i], ys[i]) for i in range(len(coords))]


def table_points(coords, depth=24):
    """Points whose ys are interval tables of width 2^-k around each y
    up to ``depth``, exact after: not affine, so each witness is
    searched, and ys a gap g apart separate only at about -log2(g), so
    the witnesses are mostly not 0."""
    reg = RealRegistry()
    ys = [reg.from_table([(Fraction(y) - Fraction(1, 2 ** (k + 1)),
                           Fraction(y) + Fraction(1, 2 ** (k + 1)))
                          for k in range(depth)], Fraction(y))
          for _, y in coords]
    return [Point(i, reg.from_rational(Fraction(x)), ys[i])
            for i, (x, _) in enumerate(coords)]


def test_side_decisions_on_exact_points():
    p, q, r = simple_points([(0, 0), (1, 0), (0, 1)])
    left, right = decide_side(p, q, r, 64), decide_side(q, p, r, 64)
    assert left == Left(0)
    assert right == Right(0)


def test_exact_orientation_real_is_degenerate():
    p, q, r = simple_points([(0, 0), (1, 0), (2, 5)])
    orient = orientation_real(p, q, r)
    at_0, at_13 = orient.interval_at(0), orient.interval_at(13)
    assert at_0 == (5, 5)
    assert at_13 == (5, 5)


def test_degenerate_side_raises_and_names_the_triple():
    p, q, r = simple_points([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(DegenerateInput) as exc:
        decide_side(p, q, r, 32)
    assert "(0, 1, 2)" in str(exc.value)


def test_blurred_side_needs_precision():
    # the triangle is left-turning but only by 1/1000, far below what
    # the blurred coordinates resolve at precision 0
    p, q, r = simple_points([(0, 0), (1, 0), (0, Fraction(1, 1000))],
                            blurred=True)
    side = decide_side(p, q, r, 64)
    assert isinstance(side, Left)
    assert side.witness > 0


def test_side_matches_exact_orientation_on_random_points():
    rng = Random(1234)
    for trial in range(30):
        pts = general_position_points(rng, 3)
        _, registered = register_points(pts, blurred=bool(trial % 2))
        p, q, r = registered
        side = decide_side(p, q, r, 256)
        expected = exact_orientation(pts[0], pts[1], pts[2])
        assert isinstance(side, Left if expected == 1 else Right)


def test_swapping_ray_points_mirrors_decision_and_witness():
    # orientation(p, r, q) is the exact negation of orientation(p, q, r),
    # so the mirrored decision carries the same witness
    rng = Random(77)
    for _ in range(20):
        pts = general_position_points(rng, 3)
        _, (p, q, r) = register_points(pts, blurred=True)
        one = decide_side(p, q, r, 256)
        other = decide_side(p, r, q, 256)
        if isinstance(one, Left):
            assert other == Right(one.witness)
        else:
            assert other == Left(one.witness)


def test_three_points_finds_a_vertex_below():
    a, q0, q1, q2 = simple_points([(0, 0), (1, 1), (-1, 1), (0, -1)])
    found = three_points(a, q0, q1, q2, 64)
    assert found == (2, 0)


def test_three_points_dovetails_precision_before_position():
    # q2 separates at precision 0, q1 only later; the scan must
    # report q2 even though q1 comes first in index order
    a, q0, q1, q2 = simple_points(
        [(0, 0), (1, 1), (-1, Fraction(-1, 10)), (0, -4)], blurred=True)
    found = three_points(a, q0, q1, q2, 64)
    assert found == (2, 0)


def test_three_points_exhaustion():
    a, q0, q1, q2 = simple_points([(0, 0), (1, 1), (-1, 1), (2, 2)])
    with pytest.raises(NoWitnessFound):
        three_points(a, q0, q1, q2, 16)
    assert issubclass(NoWitnessFound, DegenerateInput)


# Reference implementations: the linear scans over k = 0, 1, 2, ...
# that the galloping least-witness search replaced.

def scan_strict_witness(r, s, k_max):
    for k in range(k_max + 1):
        if op_at(r, s, k):
            return k
    return None


def scan_decide_side(p, q, r, k_max, orient=None):
    if orient is None:
        orient = orientation_real(p, q, r)
    zero = RealRegistry().from_rational(0)
    for k in range(k_max + 1):
        if op_at(zero, orient, k):
            return Left(k)
        if op_at(orient, zero, k):
            return Right(k)
    raise DegenerateInput(
        f"no side witness for points ({p.index}, {q.index}, {r.index}) "
        f"within precision {k_max}")


def scan_three_points(a, q0, q1, q2, k_max):
    qs = (q0, q1, q2)
    for k in range(k_max + 1):
        for i, q in enumerate(qs):
            if op_at(q.y, a.y, k):
                return (i, k)
    raise NoWitnessFound(
        f"no point of ({q0.index}, {q1.index}, {q2.index}) observed below "
        f"{a.index} within precision {k_max}")


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateInput as exc:
        return type(exc), str(exc)


grid = st.integers(min_value=-2 ** 20, max_value=2 ** 20).map(
    lambda n: Fraction(n, 2 ** 20))
grid_points = st.tuples(grid, grid)


@st.composite
def point_sets(draw, count):
    """``count`` points on the 2^-20 grid; the third is often put on the
    line through the first two, so collinear triples are drawn too."""
    coords = draw(st.lists(grid_points, min_size=count, max_size=count))
    if draw(st.booleans()):
        (px, py), (qx, qy) = coords[0], coords[1]
        t = draw(st.integers(min_value=-2, max_value=3))
        coords[2] = (px + t * (qx - px), py + t * (qy - py))
    return coords


@settings(max_examples=60, deadline=None)
@given(point_sets(3), st.sampled_from(KINDS),
       st.integers(min_value=0, max_value=64))
def test_galloping_matches_linear_scans_on_triples(coords, kind, k_max):
    p, q, r = simple_points(coords, kind == "blurred", kind == "table")
    decided = outcome(decide_side, p, q, r, k_max)
    assert decided == outcome(scan_decide_side, p, q, r, k_max)
    for a, b in ((p, q), (q, r), (r, p)):
        witness = find_strict_witness(a.y, b.y, k_max)
        assert witness == scan_strict_witness(a.y, b.y, k_max)


@settings(max_examples=30, deadline=None)
@given(point_sets(3), st.sampled_from(KINDS),
       st.integers(min_value=0, max_value=64))
def test_side_decisions_do_not_depend_on_the_start(coords, kind, k_max):
    p, q, r = simple_points(coords, kind == "blurred", kind == "table")
    expected = outcome(decide_side, p, q, r, k_max)
    for start in range(81):
        assert outcome(decide_side, p, q, r, k_max, None, start) == expected


@st.composite
def mixed_points(draw, count):
    """``count`` points of :func:`point_sets` whose coordinates are each
    built one of four ways: a constant, a blurred real, an interval table
    and a raw generator with lopsided intervals."""
    reg = RealRegistry()

    def real(value):
        kind = draw(st.sampled_from(("rational", "blurred", "table", "raw")))
        if kind == "rational":
            return reg.from_rational(value)
        if kind == "blurred":
            return reg.blurred(value)
        if kind == "table":
            rng = Random(draw(st.integers(min_value=0, max_value=2 ** 16)))
            return reg.from_table(random_table_prefix(value, rng, 8), value)
        return reg.from_generator(
            lambda k: (value - Fraction(1, 2 ** (k + 2)),
                       value + Fraction(1, 2 ** (k + 1))))

    coords = draw(point_sets(count))
    ys = [real(Fraction(y)) for _, y in coords]
    xs = [real(Fraction(x)) for x, _ in coords]
    return [Point(i, xs[i], ys[i]) for i in range(count)]


@settings(max_examples=60, deadline=None)
@given(mixed_points(3), st.booleans(), st.integers(min_value=0, max_value=64))
def test_a_reversed_side_query_is_the_mirror_at_every_precision(
        points, shared, k_max):
    # orientation(p, r, q) is the exact negation of orientation(p, q, r)
    # at every precision, shared differences or not, so the reversed
    # decision has the same witness and the other side
    p, q, r = points
    differences = {} if shared else None
    forward = orientation_real(p, q, r, differences)
    reverse = orientation_real(p, r, q, differences)
    for k in range(81):
        lo, hi = forward.interval_at(k)
        reversed_interval = reverse.interval_at(k)
        assert reversed_interval == (-hi, -lo)
    try:
        one = decide_side(p, q, r, k_max, differences)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            decide_side(p, r, q, k_max, differences)
    else:
        mirror = Right if isinstance(one, Left) else Left
        other = decide_side(p, r, q, k_max, differences)
        assert other == mirror(one.witness)


@settings(max_examples=120, deadline=None)
@given(st.one_of(point_sets(4).map(simple_points),
                 point_sets(4).map(lambda c: simple_points(c, blurred=True)),
                 point_sets(4).map(table_points), mixed_points(4)),
       st.integers(min_value=0, max_value=64))
def test_galloping_matches_linear_scan_in_three_points(points, k_max):
    # each vertex's own least witness picks the vertex and the precision
    # that dovetailing precision before position finds, on constants,
    # blurred reals, tables with nonzero witnesses and mixed reals
    a, q0, q1, q2 = points
    found = outcome(three_points, a, q0, q1, q2, k_max)
    assert found == outcome(scan_three_points, a, q0, q1, q2, k_max)


def test_collinear_triple_exhausts_kmax_256_with_the_same_message():
    p, q, r = simple_points([(0, 0), (1, Fraction(1, 2 ** 20)),
                             (2, Fraction(2, 2 ** 20))], blurred=True)
    decided = outcome(decide_side, p, q, r, 256)
    assert decided == outcome(scan_decide_side, p, q, r, 256)
    assert decided[0] is DegenerateInput


@st.composite
def affine_triples(draw):
    """Three points of blurred coordinates ``n/m`` with m in 3, 7 and
    3 * 2^5, scaled by 2^-60 or not.  Small numerators often give equal
    or nearby coordinates, so factors of the orientation straddle zero,
    and the third point is often put on the line through the first two,
    so collinear triples are drawn too."""
    scale = draw(st.sampled_from((Fraction(1), Fraction(1, 2 ** 60))))
    numerator = st.one_of(st.integers(min_value=-4, max_value=4),
                          st.integers(min_value=-2 ** 20, max_value=2 ** 20))
    value = st.builds(Fraction, numerator, st.sampled_from((3, 7, 3 * 2 ** 5)))
    coords = draw(st.lists(st.tuples(value, value), min_size=3, max_size=3))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        (px, py), (qx, qy) = coords[0], coords[1]
        t = draw(st.sampled_from((Fraction(-2), Fraction(1, 2), Fraction(3))))
        coords[2] = (px + t * (qx - px), py + t * (qy - py))
    return [(x * scale, y * scale) for x, y in coords]


@settings(max_examples=100, deadline=None)
@given(affine_triples(), st.integers(min_value=0, max_value=160))
def test_the_estimated_start_gives_the_scanned_witness(coords, k_max):
    # decide_side searches an orientation of blurred points from the
    # bound that the integers of its differences prove, whatever the
    # start: from every start the outcome is the linear scan's, and with
    # k_max one below the scanned witness it is the scan's failure
    p, q, r = simple_points(coords, blurred=True)
    expected = outcome(scan_decide_side, p, q, r, k_max)
    for start in range(81):
        decided = outcome(decide_side, p, q, r, k_max, None, start)
        assert decided == expected
    if isinstance(expected, (Left, Right)) and expected.witness > 0:
        below = expected.witness - 1
        failed = outcome(scan_decide_side, p, q, r, below)
        assert failed[0] is DegenerateInput
        for start in (0, below, expected.witness, 80):
            decided = outcome(decide_side, p, q, r, below, None, start)
            assert decided == failed


def recorded_triples(patch):
    """The ``(k, triple)`` of each orientation triple that a side
    decision of affine points computes, in order, through ``patch``:
    its node's intervals, each computed by ``reals._det2_at``."""
    computed = []
    det2_at = realearn.reals._det2_at

    def recorded(terms, k):
        computed.append((k, det2_at(terms, k)))
        return computed[-1][1]

    patch.setattr(realearn.reals, "_det2_at", recorded)
    return computed


def node_orientation(p, q, r):
    """The orientation of three points as the generic ``det2`` node of
    their ``sub`` nodes, built from the points' reals."""
    return det2(sub(q.x, p.x), sub(r.y, p.y), sub(r.x, p.x), sub(q.y, p.y))


def tuple_factors(p, q, r):
    """The ``(c, w, l, e)`` of the differences ``q.x - p.x``,
    ``r.y - p.y``, ``r.x - p.x`` and ``q.y - p.y`` of three affine
    points: the factors of their orientation."""
    def measured(a, b):
        difference = _affine_difference(a._affine, b._affine)
        return (*difference, _affine_magnitude(difference))

    return (measured(q.x, p.x), measured(r.y, p.y),
            measured(r.x, p.x), measured(q.y, p.y))


def tuple_terms(p, q, r):
    """The :func:`det2_terms` of the orientation of three affine
    points."""
    return det2_terms(*tuple_factors(p, q, r))


def node_decide_side(orient, p, q, r, k_max):
    """The side decision of three affine points as it reads ``orient``,
    their orientation node: none when the limit of the points' tuples is
    zero, else the galloping search from the bound that the tuples
    prove, or from ``k_max`` if the bound is above it, which reads no
    precision at or above the bound, and the side of the limit."""
    _, lead, bound = _det2_bound(*tuple_factors(p, q, r), k_max)

    def excludes_zero(k):
        if k >= bound:
            return True
        lo, hi = orient.interval_at(k)
        return lo > 0 or hi < 0

    k = least_witness(excludes_zero, k_max, min(bound, k_max)) if lead \
        else None
    if k is None:
        raise DegenerateInput(
            f"no side witness for points ({p.index}, {q.index}, {r.index}) "
            f"within precision {k_max}")
    return Left(k) if lead > 0 else Right(k)


@settings(max_examples=60, deadline=None)
@given(affine_triples(), st.integers(min_value=0, max_value=160))
def test_an_affine_decision_is_the_node_paths(coords, k_max):
    # a decision of blurred points computes its orientation's triples
    # from the integers of its differences, with no sub node: from every
    # start, and with k_max one below the witness, it has the outcome of
    # the same search from the tuples' bound over the generic det2 node
    # of the points' sub nodes, and computes that node's triples at the
    # same precisions in the same order, each once
    p, q, r = simple_points(coords, blurred=True)
    first = outcome(node_decide_side, node_orientation(p, q, r), p, q, r,
                    k_max)
    limits = [k_max]
    if isinstance(first, (Left, Right)) and first.witness > 0:
        limits.append(first.witness - 1)
    with pytest.MonkeyPatch.context() as patch:
        computed = recorded_triples(patch)
        for limit in limits:
            for start in range(81):
                orient = node_orientation(p, q, r)
                expected = outcome(node_decide_side, orient, p, q, r, limit)
                computed.clear()
                decided = outcome(decide_side, p, q, r, limit, None, start)
                assert decided == expected
                assert computed == list(orient._cache.items())


def recorded_checks(patch):
    """The ``(k, interval, outer)`` of each interval check, in order,
    through ``patch``: a node's in ``reals``."""
    checks = []
    check = realearn.reals._check_interval

    def recorded(k, interval, outer):
        checks.append((k, interval, outer))
        check(k, interval, outer)

    patch.setattr(realearn.reals, "_check_interval", recorded)
    return checks


@settings(max_examples=60, deadline=None)
@given(affine_triples(), st.integers(min_value=-1, max_value=160))
def test_a_side_read_at_zero_is_the_nodes(coords, k_max):
    # a decision of blurred points whose tuples prove a side at
    # precision 0 returns the side of the triple at 0 that
    # orientation_real and the generic det2 node of the points' sub
    # nodes read, and builds no node and computes no triple; from every
    # start any other decision with a nonzero limit and a budget of at
    # least 0 builds one node of the tuples' terms and computes and
    # checks the triples that the same search over one unseeded affine
    # node computes and checks, with the same outers, in the same order,
    # and no k twice
    p, q, r = simple_points(coords, blurred=True)
    terms = tuple_terms(p, q, r)
    _, lead, bound = _det2_bound(*tuple_factors(p, q, r), k_max)
    at_zero = orientation_real(p, q, r)._at(0)
    from_terms = realearn.reals._det2_at(terms, 0)
    assert from_terms == at_zero == node_orientation(p, q, r)._at(0)
    decided_at_zero = lead and bound == 0 <= k_max
    nodes = []
    affine_det2 = realearn.geometry._affine_det2

    def counted_affine_det2(*args):
        nodes.append(args)
        return affine_det2(*args)

    with pytest.MonkeyPatch.context() as patch:
        computed, checks = recorded_triples(patch), recorded_checks(patch)
        patch.setattr(realearn.geometry, "_affine_det2", counted_affine_det2)
        for start in range(81):
            computed.clear()
            checks.clear()
            expected = outcome(node_decide_side, _affine_det2(terms), p, q,
                               r, k_max)
            node_computed, node_checks = computed[:], checks[:]
            computed.clear()
            checks.clear()
            nodes.clear()
            decided = outcome(decide_side, p, q, r, k_max, None, start)
            assert decided == expected
            assert computed == node_computed
            assert checks == node_checks
            ks = [k for k, _ in computed]
            assert len(set(ks)) == len(ks)
            if __debug__:
                assert set(computed) <= {(k, t) for k, t, _ in checks}
            searched = lead and k_max >= 0 and not decided_at_zero
            assert nodes == ([(terms,)] if searched else [])
            if decided_at_zero:
                lo, hi, _ = at_zero
                assert computed == []
                assert expected == (Left(0) if lo > 0 else Right(0))
                assert lo > 0 or hi < 0


@pytest.mark.parametrize("corrupt, clause", [
    (lambda lo, hi, d, outer: (hi + 1, hi, d),
     "lower endpoint above upper endpoint"),
    (lambda lo, hi, d, outer: (lo - d, hi, d), "width exceeds 2^-{k}"),
    # below the interval at k - 1, whose denominator is d / 4
    (lambda lo, hi, d, outer: (4 * outer[0] - 1, 4 * outer[0] - 1 + hi - lo,
                               d), "lower endpoint decreases"),
], ids=["order", "width", "nesting"])
def test_a_corrupted_affine_triple_fails_as_the_node_does(
        monkeypatch, corrupt, clause):
    # the debug checks of a decision of affine points are those of the
    # generic det2 node of the points' sub nodes: the same triple
    # corrupted in each raises the same InvalidNesting, with its index
    # and clause; the points' bound lies above their witness, so the
    # search reads precisions below it, and the corrupted one is the
    # first read after the one below it, so each clause is checked there
    scale = Fraction(1, 2 ** 60)
    p, q, r = simple_points([(0, 0), (Fraction(-2, 7) * scale,
                                      Fraction(2, 7) * scale),
                             (-scale / 3, Fraction(-2, 7) * scale)],
                            blurred=True)
    _, _, bound = _det2_bound(*tuple_factors(p, q, r), 256)
    with pytest.MonkeyPatch.context() as patch:
        computed = recorded_triples(patch)
        witness = decide_side(p, q, r, 256).witness
    ks = [k for k, _ in computed]
    bad = next(k for i, k in enumerate(ks) if k - 1 in ks[:i])
    assert 1 < bad < witness < bound
    det2_at = realearn.reals._det2_at

    def corrupted(triple_at, k):
        triple = triple_at(k)
        if k != bad:
            return triple
        return corrupt(*triple, triple_at(k - 1))

    node = RealNum(None, partial(corrupted, node_orientation(p, q, r)._gen))
    monkeypatch.setattr(realearn.reals, "_det2_at",
                        lambda terms, k: corrupted(partial(det2_at, terms), k))
    failures = []
    for decide in (lambda: node_decide_side(node, p, q, r, 256),
                   lambda: decide_side(p, q, r, 256)):
        try:
            failures.append(decide())
        except InvalidNesting as exc:
            failures.append((exc.k, exc.clause))
    if __debug__:
        assert failures == [(bad, clause.format(k=bad))] * 2
    else:
        assert failures[0] == failures[1]


@pytest.mark.parametrize("start", [0, 1, 50])
def test_collinear_limits_raise_without_a_search(monkeypatch, start):
    # the limits (0, 0), (1, 1) and (2, 2) are collinear, so the
    # orientation's limit is 0 and no precision excludes zero: from any
    # start the integers of the differences say so, and no interval is
    # computed; the message is the scan's, whose form is checked at a
    # k_max it can reach
    p, q, r = simple_points([(0, 0), (1, 1), (2, 2)], blurred=True)
    computed = recorded_triples(monkeypatch)
    k_max = 2 ** 20
    with pytest.raises(DegenerateInput) as failure:
        decide_side(p, q, r, k_max, {}, start)
    assert computed == []
    assert outcome(scan_decide_side, p, q, r, 64) == \
        outcome(decide_side, p, q, r, 64, None, start)
    assert str(failure.value) == \
        outcome(scan_decide_side, p, q, r, 64)[1].replace("64", str(k_max))


def drawn_points(coords, kind, seed):
    """``simple_points`` of one kind, or with each coordinate rational,
    blurred or a table, drawn as ``support.random_real`` draws it."""
    if kind != "mixed":
        return simple_points(coords, kind == "blurred", kind == "table")
    reg, rng = RealRegistry(), Random(seed)
    ys = [random_real(reg, rng, Fraction(y))[0] for _, y in coords]
    xs = [random_real(reg, rng, Fraction(x))[0] for x, _ in coords]
    return [Point(i, xs[i], ys[i]) for i in range(len(coords))]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=6).flatmap(point_sets),
       st.sampled_from([*KINDS, "mixed"]),
       st.integers(min_value=0, max_value=2 ** 32))
def test_shared_differences_match_fresh_orientations(coords, kind, seed):
    # one dict of differences about apex p serves every (q, r) pair, and
    # each orientation built from it is the det2 of four sub nodes, level
    # by level, and decides its side; mixed points may keep the x and the
    # y difference of one key in different forms
    p, *others = drawn_points(coords, kind, seed)
    shared = {}
    for q in others:
        for r in others:
            if q is r:
                continue
            reference = node_orientation(p, q, r)
            decided = outcome(decide_side, p, q, r, 64, shared)
            assert decided == outcome(decide_side, p, q, r, 64) == \
                outcome(scan_decide_side, p, q, r, 64, reference)
            together = orientation_real(p, q, r, shared)
            alone = orientation_real(p, q, r)
            shared_intervals = [together._at(k) for k in range(81)]
            assert shared_intervals == \
                [alone._at(k) for k in range(81)] == \
                [reference._at(k) for k in range(81)]
    assert set(shared) == {(p.index, q.index) for q in others}
