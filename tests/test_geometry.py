from fractions import Fraction
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
    op_at,
    orientation_real,
    three_points,
)
from realearn.oracle import exact_orientation

from support import (general_position_points, random_table_prefix,
                     register_points)


def simple_points(coords, blurred=False):
    reg = RealRegistry()
    ctor = reg.blurred if blurred else reg.from_rational
    ys = [ctor(Fraction(y)) for _, y in coords]
    xs = [ctor(Fraction(x)) for x, _ in coords]
    return [Point(i, xs[i], ys[i]) for i in range(len(coords))]


def test_side_decisions_on_exact_points():
    p, q, r = simple_points([(0, 0), (1, 0), (0, 1)])
    assert decide_side(p, q, r, 64) == Left(0)
    assert decide_side(q, p, r, 64) == Right(0)


def test_exact_orientation_real_is_degenerate():
    p, q, r = simple_points([(0, 0), (1, 0), (2, 5)])
    orient = orientation_real(p, q, r)
    assert orient.interval_at(0) == (5, 5)
    assert orient.interval_at(13) == (5, 5)


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
    assert three_points(a, q0, q1, q2, 64) == (2, 0)


def test_three_points_dovetails_precision_before_position():
    # q2 separates at precision 0, q1 only later; the scan must
    # report q2 even though q1 comes first in index order
    a, q0, q1, q2 = simple_points(
        [(0, 0), (1, 1), (-1, Fraction(-1, 10)), (0, -4)], blurred=True)
    assert three_points(a, q0, q1, q2, 64) == (2, 0)


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


def scan_decide_side(p, q, r, k_max):
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
@given(point_sets(3), st.booleans(), st.integers(min_value=0, max_value=64))
def test_galloping_matches_linear_scans_on_triples(coords, blurred, k_max):
    p, q, r = simple_points(coords, blurred=blurred)
    assert outcome(decide_side, p, q, r, k_max) == \
        outcome(scan_decide_side, p, q, r, k_max)
    for a, b in ((p, q), (q, r), (r, p)):
        assert find_strict_witness(a.y, b.y, k_max) == \
            scan_strict_witness(a.y, b.y, k_max)


@settings(max_examples=60, deadline=None)
@given(point_sets(4), st.booleans(), st.integers(min_value=0, max_value=64))
def test_galloping_matches_linear_scan_in_three_points(coords, blurred, k_max):
    a, q0, q1, q2 = simple_points(coords, blurred=blurred)
    assert outcome(three_points, a, q0, q1, q2, k_max) == \
        outcome(scan_three_points, a, q0, q1, q2, k_max)


@settings(max_examples=30, deadline=None)
@given(point_sets(3), st.booleans(), st.integers(min_value=0, max_value=64))
def test_side_decisions_do_not_depend_on_the_start(coords, blurred, k_max):
    p, q, r = simple_points(coords, blurred=blurred)
    expected = outcome(decide_side, p, q, r, k_max)
    for start in range(81):
        assert outcome(decide_side, p, q, r, k_max, None, start) == expected


@settings(max_examples=30, deadline=None)
@given(point_sets(4), st.booleans(), st.integers(min_value=0, max_value=64))
def test_three_points_does_not_depend_on_the_start(coords, blurred, k_max):
    a, q0, q1, q2 = simple_points(coords, blurred=blurred)
    expected = outcome(three_points, a, q0, q1, q2, k_max)
    for start in range(81):
        assert outcome(three_points, a, q0, q1, q2, k_max, start) == expected


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
        assert reverse.interval_at(k) == (-hi, -lo)
    try:
        one = decide_side(p, q, r, k_max, forward)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            decide_side(p, r, q, k_max, reverse)
    else:
        mirror = Right if isinstance(one, Left) else Left
        assert decide_side(p, r, q, k_max, reverse) == mirror(one.witness)


def test_collinear_triple_exhausts_kmax_256_with_the_same_message():
    p, q, r = simple_points([(0, 0), (1, Fraction(1, 2 ** 20)),
                             (2, Fraction(2, 2 ** 20))], blurred=True)
    assert outcome(decide_side, p, q, r, 256) == \
        outcome(scan_decide_side, p, q, r, 256)
    assert outcome(decide_side, p, q, r, 256)[0] is DegenerateInput


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
    # decide_side starts an orientation of blurred points at its own
    # estimate (from start 0, once the interval at 0 fails): from every
    # start the outcome is the linear scan's, and with k_max one below
    # the scanned witness it is the scan's failure
    p, q, r = simple_points(coords, blurred=True)
    assert orientation_real(p, q, r)._estimate is not None
    expected = outcome(scan_decide_side, p, q, r, k_max)
    for start in range(81):
        assert outcome(decide_side, p, q, r, k_max, None, start) == expected
    if isinstance(expected, (Left, Right)) and expected.witness > 0:
        below = expected.witness - 1
        failed = outcome(scan_decide_side, p, q, r, below)
        assert failed[0] is DegenerateInput
        for start in (0, below, expected.witness, 80):
            assert outcome(decide_side, p, q, r, below, None, start) == failed


@pytest.mark.parametrize("start", [0, 1, 50])
def test_collinear_limits_raise_without_a_search(start):
    # the limits (0, 0), (1, 1) and (2, 2) are collinear, so the
    # orientation's limit is 0 and no precision excludes zero: only a
    # search from start 0 reads an interval, the one at 0, before the
    # node's estimate says there is no witness; the message is the
    # scan's, whose form is checked at a k_max it can reach
    p, q, r = simple_points([(0, 0), (1, 1), (2, 2)], blurred=True)
    orient = orientation_real(p, q, r)
    k_max = 2 ** 20
    with pytest.raises(DegenerateInput) as failure:
        decide_side(p, q, r, k_max, orient, start)
    assert list(orient._cache) == ([0] if start == 0 else [])
    assert outcome(scan_decide_side, p, q, r, 64) == \
        outcome(decide_side, p, q, r, 64, None, start)
    assert str(failure.value) == \
        outcome(scan_decide_side, p, q, r, 64)[1].replace("64", str(k_max))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=6).flatmap(point_sets),
       st.booleans())
def test_shared_differences_match_fresh_orientations(coords, blurred):
    # one dict of differences about apex p serves every (q, r) pair,
    # and each orientation built from it is the fresh one, level by level
    p, *others = simple_points(coords, blurred=blurred)
    shared = {}
    for q in others:
        for r in others:
            if q is r:
                continue
            together = orientation_real(p, q, r, shared)
            assert outcome(decide_side, p, q, r, 64, together) == \
                outcome(decide_side, p, q, r, 64)
            alone = orientation_real(p, q, r)
            assert [together._at(k) for k in range(81)] == \
                [alone._at(k) for k in range(81)]
    assert set(shared) == {(p.index, q.index) for q in others}
