import hashlib
import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import realearn.convex
import realearn.geometry
import realearn.least
import realearn.reals
from realearn import (
    CertificateFailure,
    DegenerateInput,
    Point,
    RealNum,
    RealRegistry,
    RestartBudgetExceeded,
    TooFewPoints,
    TraceLog,
    convex_angle,
    is_sound,
    verify_bounding,
)
from realearn.geometry import RationalPoint, orientation_real
from realearn.oracle import (exact_convex_check, exact_orientation,
                             separation_from_gap)
from realearn.reals import det2, sub
from realearn.trace import read_trace

from support import (StringTrace, blurred_grid_points, count_trace_builds,
                     document_points, general_position_points, random_real,
                     register_points)

WEDGE = [(0, 1), (-2, -1), (2, -1), (0, -2), (-1, -3), (1, -4)]
QUAD = [(0, 0), (-1, 1), (1, 1), (0, -1)]


def register(coords, blurred=False):
    pts = [RationalPoint(Fraction(x), Fraction(y)) for x, y in coords]
    return register_points(pts, blurred=blurred)[1]


def scan_cases(events):
    return [e.payload["case"] for e in events if e.phase == "scan"]


def test_rejects_fewer_than_three_points():
    with pytest.raises(TooFewPoints):
        convex_angle(register(QUAD)[:2])


def test_rejects_points_out_of_index_order():
    pts = register(QUAD)
    with pytest.raises(ValueError, match="position 0 carries index 1"):
        convex_angle([pts[1], pts[0], *pts[2:]])


def test_registry_order_does_not_matter():
    # x coordinates registered before y: the construction learns over
    # the points' own y list, so nothing it reports changes
    rng = Random(2718)
    for trial in range(30):
        rational = general_position_points(rng, rng.randint(3, 12))
        blurred = bool(trial % 2)
        reg = RealRegistry()
        ctor = reg.blurred if blurred else reg.from_rational
        xs = [ctor(p.x) for p in rational]
        ys = [ctor(p.y) for p in rational]
        x_first = [Point(i, xs[i], ys[i]) for i in range(len(rational))]
        _, y_first = register_points(rational, blurred=blurred)
        runs = []
        for pts in (x_first, y_first):
            log = StringTrace()
            res = convex_angle(pts, trace=log)
            runs.append(((res.a, res.b, res.c), res.certificate, res.restarts,
                         log.text))
        assert runs[0] == runs[1]


def test_wedge_completes_without_backtracking():
    log = StringTrace()
    res = convex_angle(register(WEDGE), trace=log)
    assert (res.a, res.b, res.c) == (0, 1, 2)
    assert res.restarts == 0
    assert res.state.entries == {}
    assert scan_cases(log.events) == ["keep", "keep", "keep"]
    assert set(res.certificate.left) == {3, 4, 5}
    assert set(res.certificate.right) == {3, 4, 5}


def test_an_unread_trace_is_never_built(monkeypatch, tmp_path):
    phases, renders = count_trace_builds(monkeypatch)
    log = TraceLog()
    res = convex_angle(register(QUAD), trace=log)
    assert res.restarts == 1
    assert phases == [] and renders == []

    path = tmp_path / "run.trace"
    path.write_text("".join(log.lines()))
    trace = res.trace
    assert phases.count("decide") == 2 * 3
    assert trace == list(read_trace(path))
    # one select-A event per attempt, one extend per restart, one accept,
    # each written from its state's snapshot text, which each of the two
    # states renders once
    assert sum("state" in e.payload for e in trace) == 2 + 1 + 1
    assert renders == [0, 1]
    assert [e.seq for e in trace] == list(range(len(trace)))

    again = res.trace
    assert again == trace and again is not trace
    again[0].payload["pair"].append(7)
    again[-1].payload["state"].clear()
    assert res.trace == trace


def test_quad_restarts_once_and_relearns_apex():
    log = StringTrace()
    res = convex_angle(register(QUAD), trace=log)
    assert (res.a, res.b, res.c) == (3, 2, 1)
    assert res.restarts == 1
    assert res.state.entries == {(0, 3): 0}
    # first pass hits the blocked case, second replaces a ray end
    assert scan_cases(log.events) == ["blocked", "new-b"]
    threes = [e.payload for e in log.events if e.phase == "three-points"]
    assert threes == [{"a": 0, "cycle": [3, 2, 1], "below": 3, "witness": 0}]
    assert exact_convex_check(
        [RationalPoint(Fraction(x), Fraction(y)) for x, y in QUAD],
        res.a, res.b, res.c)


def test_ray_replacement_toward_c():
    coords = [(0, -10), (-1, 0), (1, 0), (-3, 1)]
    log = StringTrace()
    res = convex_angle(register(coords), trace=log)
    assert (res.a, res.b, res.c) == (0, 2, 3)
    assert res.restarts == 0
    assert scan_cases(log.events) == ["new-c"]
    # the replaced ray end was certified from its mutual witness
    assert set(res.certificate.left) == set(res.certificate.right) == {1}


def test_blurred_coordinates_give_the_same_answer():
    res = convex_angle(register(QUAD, blurred=True))
    assert (res.a, res.b, res.c) == (3, 2, 1)
    exact = convex_angle(register(QUAD))
    assert (exact.a, exact.b, exact.c) == (3, 2, 1)


def test_collinear_points_raise_degenerate_input():
    coords = [(0, 0), (1, 0), (2, 0), (0, 1)]
    with pytest.raises(DegenerateInput):
        convex_angle(register(coords))


def test_restart_budget():
    with pytest.raises(RestartBudgetExceeded):
        convex_angle(register(QUAD), max_restarts=0)


def test_verify_bounding_reproduces_certificate():
    pts = register(WEDGE)
    res = convex_angle(pts)
    certificate = verify_bounding(pts, res.a, res.b, res.c)
    assert certificate == res.certificate


def test_verify_bounding_rejects_wrong_angle():
    pts = register(QUAD)
    res = convex_angle(pts)
    with pytest.raises(CertificateFailure):
        verify_bounding(pts, res.a, res.c, res.b)
    with pytest.raises(CertificateFailure):
        verify_bounding(pts, res.b, res.a, res.c)
    with pytest.raises(CertificateFailure):
        verify_bounding(pts, res.a, res.b, 99)


def test_verify_bounding_enforces_the_point_layout():
    # the audit reads points by list position, so like convex_angle it
    # needs points[i].index == i rather than judging another triple
    pts = register([(0, 0), (4, 1), (-4, 1), (0, 3)])
    res = convex_angle(pts)
    assert (res.a, res.b, res.c) == (0, 1, 2)
    with pytest.raises(ValueError, match="position 0 carries index 3"):
        verify_bounding([pts[3], pts[1], pts[2], pts[0]], 0, 1, 2)
    shifted = [Point(p.index + 5, p.x, p.y) for p in pts]
    with pytest.raises(ValueError, match="position 0 carries index 5"):
        verify_bounding(shifted, 5, 6, 7)


def test_random_instances_match_exact_oracle():
    rng = Random(31415)
    for trial in range(20):
        count = rng.randint(3, 12)
        rational = general_position_points(rng, count)
        _, pts = register_points(rational, blurred=bool(trial % 2))
        res = convex_angle(pts)
        assert exact_convex_check(rational, res.a, res.b, res.c)
        certificate = verify_bounding(pts, res.a, res.b, res.c)
        assert certificate == res.certificate
        assert is_sound(res.state)
        assert res.restarts <= 2 ** (count - 1) - 1


def test_certificate_witnesses_are_observable():
    # every stored witness must actually decide the corresponding side
    from realearn import op_at

    pts = register(WEDGE)
    res = convex_angle(pts)
    zero = RealRegistry().from_rational(0)
    for d, w in res.certificate.left.items():
        orient = orientation_real(pts[res.a], pts[res.b], pts[d])
        assert op_at(zero, orient, w)
    for d, w in res.certificate.right.items():
        orient = orientation_real(pts[res.a], pts[res.c], pts[d])
        assert op_at(orient, zero, w)


def accepted_sides(events):
    """The side events of the last attempt: for each ordered pair
    (q, r), the set of (side of P_r from A->P_q, witness) they record,
    a reversed event counted with its side flipped."""
    flip = {"left": "right", "right": "left"}
    sides = {}
    for event in events:
        if event.phase == "select-A":
            sides = {}
        elif event.phase == "side":
            payload = event.payload
            q, r, side = payload["line"][1], payload["point"], payload["side"]
            for key, seen in (((q, r), side), ((r, q), flip[side])):
                sides.setdefault(key, set()).add((seen, payload["witness"]))
    return sides


def test_certificate_is_the_recorded_side_decisions():
    # every certificate witness is the witness of a side event of the
    # accepting attempt about that pair, either way round, and no event
    # of that attempt about the pair records another side or witness
    rng = Random(27)
    seen = Counter()
    corpus = [([RationalPoint(p.x * scale, p.y * scale) for p in
                general_position_points(rng, rng.randint(3, 12))], blurred)
              for scale in (1, Fraction(1, 2 ** 60))
              for blurred in (False, True) for _ in range(6)]
    corpus.append((angle_ordered_points(20), True))
    for rational, blurred in corpus:
        _, pts = register_points(rational, blurred=blurred)
        log = StringTrace()
        res = convex_angle(pts, trace=log)
        sides = accepted_sides(log.events)
        cert, b, c = res.certificate, res.b, res.c
        assert sides[b, c] == {("left", cert.c_left)}
        assert sides[c, b] == {("right", cert.b_right)}
        assert set(cert.left) == set(cert.right) == (
            set(range(len(pts))) - {res.a, b, c})
        for d in cert.left:
            assert sides[b, d] == {("left", cert.left[d])}
            assert sides[c, d] == {("right", cert.right[d])}
        seen["restarted" if res.restarts else "first attempt"] += 1
        seen["deep"] += max(cert.left.values(), default=0) > 0
        seen["replaced"] += any(case.startswith("new-")
                                for case in scan_cases(log.events))
    assert min(seen.values()) >= 2, seen


@pytest.mark.parametrize("scale", [1, Fraction(1, 2 ** 40)],
                         ids=["unscaled", "scaled"])
@pytest.mark.parametrize("blurred", [False, True], ids=["rational", "blurred"])
def test_side_witnesses_need_no_more_than_the_separation_precision(
        blurred, scale):
    # at precision k the orientation's interval holds the exact value
    # and is at most 2**-k wide, so it excludes zero once 2**-k is
    # below |orientation|: no side witness exceeds that precision
    def check(p, q, r, witness, left):
        P, Q, R = (rational[i] for i in (p, q, r))
        assert exact_orientation(P, Q, R) == (1 if left else -1)
        value = (Q.x - P.x) * (R.y - P.y) - (R.x - P.x) * (Q.y - P.y)
        assert witness <= separation_from_gap(abs(value)), (p, q, r)
        checked.append(witness)

    checked = []
    rng = Random(5)
    for _ in range(8):
        rational = [RationalPoint(p.x * scale, p.y * scale) for p in
                    general_position_points(rng, rng.randint(3, 10))]
        _, pts = register_points(rational, blurred=blurred)
        log = StringTrace()
        res = convex_angle(pts, trace=log)
        for event in log.events:
            if event.phase == "side":
                payload = event.payload
                check(*payload["line"], payload["point"], payload["witness"],
                      payload["side"] == "left")
        a, b, c = res.a, res.b, res.c
        for cert in (res.certificate, verify_bounding(pts, a, b, c)):
            check(a, b, c, cert.c_left, True)
            check(a, c, b, cert.b_right, False)
            for d in cert.left:
                check(a, b, d, cert.left[d], True)
                check(a, c, d, cert.right[d], False)
    assert len(checked) > 100


def test_three_points_witnesses_need_no_more_than_the_separation_precision():
    # op_at(q.y, a.y, k) compares two intervals, each holding its exact
    # value and at most 2**-k wide, so it holds once 2 * 2**-k is below
    # the gap: a vertex whose y lies g below the apex's is seen by
    # precision separation_from_gap(g) + 1, and the witness is the first
    # precision at which any vertex is seen
    checked = []
    for blurred in (False, True):
        for scale in (1, Fraction(1, 2 ** 40)):
            rng = Random(5)
            for _ in range(60):
                rational = [RationalPoint(p.x * scale, p.y * scale) for p in
                            general_position_points(rng, rng.randint(3, 10))]
                _, pts = register_points(rational, blurred=blurred)
                log = StringTrace()
                convex_angle(pts, trace=log)
                for event in log.events:
                    if event.phase != "three-points":
                        continue
                    payload = event.payload
                    apex = rational[payload["a"]].y
                    gap = max(apex - rational[q].y for q in payload["cycle"])
                    assert gap > 0
                    assert payload["witness"] <= separation_from_gap(gap) + 1
                    checked.append(payload["witness"])
    assert len(checked) >= 20


def test_trace_digest_is_pinned():
    # sha256 over the traces of 200 seeded instances (3-20 points, odd
    # ones blurred); any change to a side query, its order, a witness or
    # a restart moves it.
    rng = Random(7)
    digest = hashlib.sha256()
    for trial in range(200):
        count = rng.randint(3, 20)
        rational = general_position_points(rng, count)
        _, pts = register_points(rational, blurred=bool(trial % 2))
        log = StringTrace()
        convex_angle(pts, trace=log)
        digest.update(log.text.encode())
    assert digest.hexdigest() == (
        "a73aebbb8ba9a0364913659da1fa8b7030eae0def3f13efe625853f69debc1e3")


def deep_instances():
    """The points of 40 seeded instances (4-8 points, odd ones blurred)
    scaled by 2^-60, so blurred side witnesses land near 50."""
    rng = Random(11)
    for trial in range(40):
        rational = [RationalPoint(p.x / 2 ** 60, p.y / 2 ** 60) for p in
                    general_position_points(rng, rng.randint(4, 8))]
        yield register_points(rational, blurred=bool(trial % 2))[1]


def test_deep_trace_digest_is_pinned(monkeypatch):
    # each side decision starts its witness search at the witness of the
    # decision before it, or, on blurred points, at the bound that the
    # integers of the orientation prove: the witnesses must stay the
    # least ones, and the searches must probe at most a quarter of the
    # levels they probe from 0 (1,029 against 4,152; the rational
    # instances keep the start they are given, and a probe at or above
    # a blurred orientation's bound reads no interval)
    least_witness = realearn.geometry.least_witness
    probes = []

    def counted(holds, k_max, start=0):
        return least_witness(lambda k: probes.append(k) or holds(k),
                             k_max, start)

    def probed(search):
        monkeypatch.setattr(realearn.geometry, "least_witness", search)
        probes.clear()
        runs = []
        for pts in deep_instances():
            log = StringTrace()
            res = convex_angle(pts, trace=log)
            certificate = verify_bounding(pts, res.a, res.b, res.c)
            assert certificate == res.certificate
            runs.append((pts, log))
        return len(probes), runs

    levels, runs = probed(counted)
    from_zero, _ = probed(lambda holds, k_max, start=0: counted(holds, k_max))
    assert 4 * levels <= from_zero, (levels, from_zero)
    digest = hashlib.sha256()
    for pts, log in runs:
        digest.update(log.text.encode())
        for event in log.events:
            payload = event.payload
            if event.phase == "side" and payload["witness"] > 0:
                p, q = payload["line"]
                orient = orientation_real(pts[p], pts[q], pts[payload["point"]])
                lo, hi = orient.interval_at(payload["witness"] - 1)
                assert lo <= 0 <= hi, payload
    assert digest.hexdigest() == (
        "7b986fe3c874a08c58dcdbf44514d2e62d08e02e4a7a796c539605e2fe777b9f")


def angle_ordered_points(n):
    """Apex 0 is the lowest point and point i lies at angle
    0.05 + 3.0 i / n around it on the unit circle, on the 2^-12 grid:
    every scanned point replaces ray C and re-witnesses all certified
    points, so side decisions grow as n^2."""
    coords = [(Fraction(0), Fraction(0))]
    for i in range(1, n):
        angle = 0.05 + 3.0 * i / n
        coords.append((Fraction(round(math.cos(angle) * 4096), 4096),
                       Fraction(round(math.sin(angle) * 4096), 4096)))
    return [RationalPoint(x, y) for x, y in coords]


def test_wide_trace_digest_is_pinned():
    # sha256 of the trace of one angle-ordered blurred instance; every
    # scanned point moves a ray, so the rescan order and its witnesses
    # are all in it.
    rational = angle_ordered_points(60)
    _, pts = register_points(rational, blurred=True)
    log = StringTrace()
    res = convex_angle(pts, trace=log)
    assert exact_convex_check(rational, res.a, res.b, res.c)
    digest = hashlib.sha256(log.text.encode())
    assert digest.hexdigest() == (
        "1af4743992a0f76f058017604b0cf0f67d9066a423805198e9fdb913cad0ce9f")


def mixed_instances():
    """The points of 100 seeded instances (3-12 points, odd ones scaled
    by 2^-40) whose coordinates are each rational, blurred or a table,
    drawn as ``support.random_real`` draws them, every y before every x."""
    rng = Random(13)
    for trial in range(100):
        rational = general_position_points(rng, rng.randint(3, 12))
        if trial % 2:
            rational = [RationalPoint(p.x / 2 ** 40, p.y / 2 ** 40)
                        for p in rational]
        reg = RealRegistry()
        ys = [random_real(reg, rng, p.y)[0] for p in rational]
        xs = [random_real(reg, rng, p.x)[0] for p in rational]
        yield [Point(i, xs[i], ys[i]) for i in range(len(rational))]


def test_mixed_trace_digest_is_pinned(monkeypatch):
    # sha256 over the traces of points whose coordinates mix real kinds:
    # they reach the join that no all-rational or all-blurred instance
    # does, a difference with exactly one affine operand.  A coordinate
    # difference of two affine operands is kept as its (c, w, l, e)
    # tuple, so no sub node has two of them
    affine_operands = Counter()
    sub = realearn.geometry.sub

    def counted_sub(a, b):
        affine_operands[(a._affine is not None) + (b._affine is not None)] += 1
        return sub(a, b)

    monkeypatch.setattr(realearn.geometry, "sub", counted_sub)
    digest = hashlib.sha256()
    for pts in mixed_instances():
        log = StringTrace()
        res = convex_angle(pts, trace=log)
        certificate = verify_bounding(pts, res.a, res.b, res.c)
        assert certificate == res.certificate
        digest.update(log.text.encode())
    assert affine_operands[1] >= 1000 and affine_operands[2] == 0, \
        affine_operands
    assert digest.hexdigest() == (
        "c9e28eabdc97ef0be6f34f2bcec1b271d1dbbc9640ccff79256f8e463bfeb407")


def test_a_dict_builds_each_sub_node_once(monkeypatch):
    # on the mixed instances no dict builds an (apex, point) key twice,
    # nor the sub node of one of its coordinate differences, and each
    # coordinate difference is decided on its own: a (c, w, l, e) tuple
    # exactly when both of its coordinates are affine, else a sub node
    difference, sub = realearn.geometry._difference, realearn.geometry.sub
    dicts, current = {}, []
    keys, builds, kept = Counter(), Counter(), Counter()

    def recorded_difference(p, q, differences):
        # the dicts are kept, so no two of one instance share an id
        dicts.setdefault(id(differences), differences)
        current[:] = [id(differences)]
        if (p.index, q.index) not in differences:
            keys[id(differences), p.index, q.index] += 1
        return difference(p, q, differences)

    def counted_sub(a, b):
        builds[(*current, names[id(b)], names[id(a)])] += 1
        return sub(a, b)

    monkeypatch.setattr(realearn.geometry, "_difference", recorded_difference)
    monkeypatch.setattr(realearn.geometry, "sub", counted_sub)
    for pts in mixed_instances():
        names = {id(coord): (p.index, axis)
                 for p in pts for axis, coord in (("x", p.x), ("y", p.y))}
        dicts.clear()
        keys.clear()
        builds.clear()
        res = convex_angle(pts)
        certificate = verify_bounding(pts, res.a, res.b, res.c)
        assert certificate == res.certificate
        assert max(keys.values()) == 1
        assert max(builds.values(), default=1) == 1
        for differences in dicts.values():
            for (apex, point), entry in differences.items():
                p, q = pts[apex], pts[point]
                shape = tuple(type(d) is tuple for d in entry)
                assert shape == tuple(
                    a._affine is not None and b._affine is not None
                    for a, b in ((q.x, p.x), (q.y, p.y)))
                kept[shape] += 1
    # every pairing of a tuple and a node difference in one entry
    assert len(kept) == 4 and min(kept.values()) > 0, kept


def test_an_attempt_builds_each_difference_once(monkeypatch):
    # apex 0 is the lowest point, so the first attempt is accepted; it
    # needs one x and one y difference per other point, each a (c, w, l)
    # tuple of blurred coordinates, and its decisions build no sub or
    # det2 node
    n = 24
    _, pts = register_points(angle_ordered_points(n + 1), blurred=True)
    differences, nodes, decisions = [], [], []
    affine_difference = realearn.geometry._affine_difference
    decide_side = realearn.convex.decide_side

    def counted_difference(a, b):
        differences.append(affine_difference(a, b))
        return differences[-1]

    def counted_decide_side(*args):
        decisions.append(args)
        return decide_side(*args)

    monkeypatch.setattr(realearn.geometry, "_affine_difference",
                        counted_difference)
    for name in ("sub", "det2"):
        monkeypatch.setattr(realearn.geometry, name,
                            lambda *args, name=name: nodes.append(name))
    monkeypatch.setattr(realearn.convex, "decide_side", counted_decide_side)
    res = convex_angle(pts)
    assert res.restarts == 0
    assert len(decisions) > 2 * n
    assert 0 < len(differences) <= 2 * n
    assert nodes == []


def test_only_table_points_build_generic_nodes(monkeypatch):
    # a rational is the affine real (n, 0, d), so a construction and its
    # audit over rational points keep every coordinate difference as a
    # tuple and build no sub or det2 node; over the same points with
    # one-interval table coordinates every difference is a sub node and
    # every side decision searches a generic det2 node
    rational = general_position_points(Random(8), 10)
    built = Counter()
    for name in ("sub", "det2"):
        node = getattr(realearn.geometry, name)

        def counted(*args, name=name, node=node):
            built[name] += 1
            return node(*args)

        monkeypatch.setattr(realearn.geometry, name, counted)
    runs = {}
    for table in (False, True):
        built.clear()
        _, pts = register_points(rational, table=table)
        res = convex_angle(pts)
        certificate = verify_bounding(pts, res.a, res.b, res.c)
        assert certificate == res.certificate
        runs[table] = (res.a, res.b, res.c, res.restarts, dict(built))
    assert runs[False][:4] == runs[True][:4]
    assert runs[False][4] == {}
    assert runs[True][4]["det2"] > 0 and runs[True][4]["sub"] > 0


def grid_points(count, span, denominator):
    """The points of a generated document of blurred grid points, as
    ``blurred_grid_points`` draws them and the golden CLI rows run
    them."""
    return document_points(blurred_grid_points(count, span, denominator))


def deep8_points():
    """deep8: 8 points on the 2^-72 grid, |k| <= 2**20."""
    return grid_points(8, 2 ** 20, 2 ** 72)


def test_deep8_evaluates_few_arithmetic_nodes(monkeypatch):
    # an evaluation is an interval computed, not read from the cache;
    # the points are blurred, so each orientation's triples are computed
    # from the (c, w, l) of its four differences, and the only
    # intervals the construction and its audit compute are the 48
    # orientation triples, each once per decision, whose searches start
    # at the bounds that the integers of the differences prove, reading
    # no precision at or above a bound (76 when a decision read its
    # triple at 0 and then searched from the orientation's estimate, 132
    # from the previous witness, 434 when det2 read its factors, 698 as
    # sub(mul, mul) trees); the learner compares y coordinates, blurred
    # reals that op_at and find_strict_witness compare in closed form,
    # so no input interval is computed (10 when they read intervals)
    pts = deep8_points()
    evaluations = Counter()
    at, det2_at = RealNum._at, realearn.reals._det2_at

    def counted_at(real, k):
        if k not in real._cache:
            evaluations["node" if real.index is None else "input"] += 1
        return at(real, k)

    def counted_det2_at(terms, k):
        evaluations["orientation"] += 1
        return det2_at(terms, k)

    monkeypatch.setattr(RealNum, "_at", counted_at)
    monkeypatch.setattr(realearn.reals, "_det2_at", counted_det2_at)
    res = convex_angle(pts)
    certificate = verify_bounding(pts, res.a, res.b, res.c)
    assert certificate == res.certificate
    assert (res.a, res.b, res.c, res.restarts) == (4, 7, 2, 1)
    assert evaluations["input"] == 0
    assert evaluations["node"] == evaluations["orientation"], evaluations
    assert 0 < evaluations["orientation"] <= 48, evaluations


def test_deep8_takes_both_sides_of_the_bound(monkeypatch):
    # on deep8 the bound that the integers of the differences prove is
    # the witness of some side decisions, which then read one triple,
    # below the bound, and lies above the witness of others, which
    # search further down
    pts = deep8_points()
    bounds, gaps = [], Counter()
    det2_bound = realearn.geometry._det2_bound
    decide_side = realearn.convex.decide_side

    def recorded_bound(*args):
        terms, lead, bound = det2_bound(*args)
        bounds.append(bound)
        return terms, lead, bound

    def recorded_decide_side(*args):
        bounds.clear()
        decision = decide_side(*args)
        gaps["at" if bounds == [decision.witness] else "above"] += 1
        assert bounds[0] >= decision.witness
        return decision

    monkeypatch.setattr(realearn.geometry, "_det2_bound", recorded_bound)
    monkeypatch.setattr(realearn.convex, "decide_side", recorded_decide_side)
    monkeypatch.setattr(realearn.geometry, "decide_side", recorded_decide_side)
    res = convex_angle(pts)
    certificate = verify_bounding(pts, res.a, res.b, res.c)
    assert certificate == res.certificate
    assert gaps["at"] > 0 and gaps["above"] > 0, gaps


def bound_paths(monkeypatch):
    """A counter of how ``geometry._det2_bound`` settles each bound,
    through ``monkeypatch``: by the limit alone, with no terms
    (``limit``), by the test at 0 of the built terms (``zero``), or by a
    search past 0 (``search``)."""
    paths = Counter()
    det2_bound = realearn.geometry._det2_bound

    def counted(*args):
        terms, lead, bound = det2_bound(*args)
        paths["limit" if terms is None else "zero" if bound == 0
              else "search"] += 1
        return terms, lead, bound

    monkeypatch.setattr(realearn.geometry, "_det2_bound", counted)
    return paths


@pytest.mark.parametrize("pts, construction, audit", [
    (grid_points(16, 2 ** 19, 2 ** 12), {"limit": 77}, {"limit": 27}),
    (register_points(general_position_points(Random(65), 16),
                     blurred=True)[1], {"limit": 92}, {"limit": 27}),
    (deep8_points(), {"search": 26}, {"search": 11}),
    (grid_points(16, 2 ** 12, 2 ** 12), {"limit": 35, "zero": 38, "search": 4},
     {"limit": 9, "zero": 16, "search": 2}),
], ids=["wide16", "grid16", "deep8", "shallow16"])
def test_which_path_settles_each_bound(monkeypatch, pts, construction,
                                       audit):
    # the limit of an orientation proves its bound of 0 with no terms
    # when some difference has a positive magnitude exponent and the
    # limit exceeds 1/2 in size:
    # on blurred points at the benchmark's scale, 2^-12-grid points with
    # |k| <= 2^19 (wide16) or 2^20 (grid16, two restarts), it
    # settles every decision of the construction and of the audit; on
    # deep8, whose differences are all below 1, it settles none; on
    # shallow16, |k| <= 2^12, it settles some, the test at 0 of the
    # built terms more, and a search the rest
    paths = bound_paths(monkeypatch)
    res = convex_angle(pts)
    built = dict(paths)
    paths.clear()
    certificate = verify_bounding(pts, res.a, res.b, res.c)
    assert certificate == res.certificate
    assert (built, dict(paths)) == (construction, audit)


@pytest.mark.parametrize("rational, restarts", [
    (angle_ordered_points(25), 0),
    (general_position_points(Random(55), 10), 3),
], ids=["angle-ordered", "restarting"])
def test_no_attempt_decides_a_pair_twice(monkeypatch, rational, restarts):
    # orientation(a, r, q) is the exact negation of orientation(a, q, r),
    # so an attempt decides each pair {q, r} once, either way round, and
    # recalls it for every later side event about that pair
    _, pts = register_points(rational, blurred=True)
    attempts = []
    least_candidate = realearn.least.least_candidate
    decide_side = realearn.convex.decide_side

    def counted_least_candidate(*args):
        attempts.append([])
        return least_candidate(*args)

    def counted_decide_side(p, q, r, *rest):
        attempts[-1].append(frozenset((q.index, r.index)))
        return decide_side(p, q, r, *rest)

    monkeypatch.setattr(realearn.least, "least_candidate",
                        counted_least_candidate)
    monkeypatch.setattr(realearn.convex, "decide_side", counted_decide_side)
    log = StringTrace()
    res = convex_angle(pts, trace=log)
    assert res.restarts == restarts == len(attempts) - 1
    asked = []
    for event in log.events:
        if event.phase == "select-A":
            asked.append([])
        elif event.phase == "side":
            line, point = event.payload["line"], event.payload["point"]
            asked[-1].append(frozenset((line[1], point)))
    for decided, sides in zip(attempts, asked):
        assert len(set(decided)) == len(decided)
        assert set(decided) == set(sides)
    assert sum(map(len, attempts)) < sum(map(len, asked))


def test_registry_holds_input_reals_only():
    reg, pts = register_points(angle_ordered_points(12), blurred=True)
    inputs = len(reg)
    assert inputs == 24
    a, b = pts[1].x, pts[2].y
    for node in (sub(a, b), det2(a, b, pts[3].x, a),
                 orientation_real(pts[0], pts[1], pts[2])):
        assert node.index is None
        node.interval_at(40)
    res = convex_angle(pts)
    verify_bounding(pts, res.a, res.b, res.c)
    assert len(reg) == inputs
    assert list(reg) == [p.y for p in pts] + [p.x for p in pts]
