"""End-to-end acceptance checks.

Each test prints one pass/fail line on the real stdout so the verdicts
survive pytest's capture. Later criteria reuse artifacts recorded by
earlier ones (module state), so this file expects to run in order.
"""

import functools
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

import pytest

from realearn import (
    Assumed,
    Challenge,
    DegenerateInput,
    RealRegistry,
    Refl,
    ScriptedAuditor,
    Step,
    blame,
    convex_angle,
    empty_state,
    extend,
    learn_least,
    least_candidate,
    op_at,
    verify_bounding,
)
from realearn.geometry import RationalPoint
from realearn.oracle import (
    OracleAuditor,
    exact_convex_check,
    exact_min_index,
)
from realearn.replay import replay_paths

from support import (
    StringTrace,
    distinct_fractions,
    evidence_graph,
    general_position_points,
    random_real,
    register_points,
)

WORKED_VALUES = (0, Fraction(-5, 2), -1, -2, -3, 1)
WORKED_SCRIPT = [
    Challenge(3, 33),
    Challenge(2, 25, force=True),
    Challenge(3, 12),
    Challenge(1, 7),
    Challenge(4, 9),
]
WEDGE = [(0, 1), (-2, -1), (2, -1), (0, -2), (-1, -3), (1, -4)]
COLLINEAR = [(0, 0), (1, 0), (2, 0), (0, 1)]

# traces recorded by criteria 4/6/7 and re-run by criterion 9
ARTIFACTS = {}

_CAPTURE = {}


@pytest.fixture(autouse=True)
def _find_capture_manager(request):
    _CAPTURE["manager"] = request.config.pluginmanager.getplugin(
        "capturemanager")
    yield


def _emit(line):
    manager = _CAPTURE.get("manager")
    if manager is not None:
        with manager.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _emit(f"criterion {number}: FAIL - {label}")
                raise
            _emit(f"criterion {number}: PASS - {label}")
            return result
        return run
    return wrap


def worked_registry():
    reg = RealRegistry()
    for q in WORKED_VALUES:
        reg.blurred(q)
    return reg


def first_witness(vec):
    for k, value in enumerate(vec):
        if value:
            return k
    return None


@criterion(1, "order rules hold on 1000 random mixed triples at k, l <= 64")
def test_criterion_1_order_rules():
    rng = Random(0xC0FFEE)
    start = time.monotonic()
    for _ in range(1000):
        reg = RealRegistry()
        reals = [random_real(reg, rng)[0] for _ in range(3)]
        vec = {}
        for x in range(3):
            for y in range(3):
                vec[x, y] = [op_at(reals[x], reals[y], k) for k in range(65)]
        for key, v in vec.items():
            # monotone: a witness at k stays a witness at every l >= k
            assert all(v[k] <= v[k + 1] for k in range(64)), key
        for x in range(3):
            assert not any(vec[x, x]), "irreflexivity violated"
        for x in range(3):
            for y in range(x + 1, 3):
                assert not (any(vec[x, y]) and any(vec[y, x])), \
                    "asymmetry violated"
        # transitivity at max(k, l); with monotone vectors the first
        # witnesses are the only case that needs checking
        for x in range(3):
            for y in range(3):
                for z in range(3):
                    if len({x, y, z}) != 3:
                        continue
                    k = first_witness(vec[x, y])
                    l = first_witness(vec[y, z])
                    if k is not None and l is not None:
                        assert vec[x, z][max(k, l)], "transitivity violated"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"order rule suite took {elapsed:.1f}s"


@criterion(2, "blame of Step(33, Assumed(0,2)) at 25 is ((0,2), 33)")
def test_criterion_2_blame_reproduction():
    blamed = blame(Step(33, Assumed(0, 2), 3), 25)
    assert blamed == ((0, 2), 33)


@criterion(3, "empty state proposes candidate 0 with n assumed edges, n <= 100")
def test_criterion_3_empty_state_baseline():
    start = time.monotonic()
    reg = RealRegistry()
    for i in range(101):
        reg.blurred(i)
    state = empty_state(reg)
    for n in range(101):
        cand = least_candidate(state, n)
        assert cand.candidate == 0
        assert cand.evidences[0] == Refl(0)
        assumed = [ev for ev in cand.evidences.values()
                   if isinstance(ev, Assumed)]
        assert len(assumed) == n
        assert all(cand.evidences[j] == Assumed(0, j) for j in range(1, n + 1))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"baseline sweep took {elapsed:.1f}s"


@criterion(4, "golden run: evidence graph, candidate sequence, state growth")
def test_criterion_4_golden_traces():
    reg = worked_registry()
    one_fact = extend(empty_state(reg), 0, 3, 33)
    solid, dotted = evidence_graph(least_candidate(one_fact, 5))
    assert solid == {(3, 0, 33)}
    assert dotted == {(3, 4), (3, 5), (0, 1), (0, 2)}

    log = StringTrace()
    learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                empty_state(worked_registry()), 32, log)
    events = log.events
    candidates = [e.payload["candidate"] for e in events
                  if e.phase == "candidate"]
    assert candidates == [0, 3, 2, 3, 1, 4]
    extends = [(tuple(e.payload["pair"]), e.payload["witness"])
               for e in events if e.phase == "extend"]
    assert extends == [((0, 3), 33), ((0, 2), 33), ((2, 3), 12),
                       ((0, 1), 33), ((1, 4), 9)]
    snapshots = [e.payload["state"] for e in events if e.phase == "extend"]
    assert [len(s) for s in snapshots] == [1, 2, 3, 4, 5]
    assert snapshots[-1] == [
        {"i": 0, "j": 1, "witness": 33},
        {"i": 0, "j": 2, "witness": 33},
        {"i": 0, "j": 3, "witness": 33},
        {"i": 1, "j": 4, "witness": 9},
        {"i": 2, "j": 3, "witness": 12},
    ]
    ARTIFACTS["worked"] = log.text


@criterion(5, "oracle-audited learning finds the exact argmin, 200 instances")
def test_criterion_5_oracle_convergence():
    rng = Random(0x5EED)
    start = time.monotonic()
    for _ in range(200):
        n = rng.randint(0, 12)
        values = distinct_fractions(rng, n + 1)
        reg = RealRegistry()
        reals = [random_real(reg, rng, value=v)[0] for v in values]
        assert all(r.index == i for i, r in enumerate(reals))
        log = StringTrace()
        outcome = learn_least(n, OracleAuditor(reg, values),
                              empty_state(reg), 2 ** n, log)
        assert outcome.candidate.candidate == exact_min_index(values)
        assert outcome.restarts <= 2 ** n - 1
        verdict = replay_paths([log.events], n)
        assert verdict.ok
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"oracle convergence suite took {elapsed:.1f}s"


@criterion(6, "convex angle matches the exact oracle on 100 random point sets")
def test_criterion_6_convex_end_to_end():
    rng = Random(0xA11CE)
    start = time.monotonic()
    recorded = []
    for trial in range(100):
        count = rng.randint(3, 30)
        rational = general_position_points(rng, count)
        blurred = bool(trial % 2)
        _, points = register_points(rational, blurred=blurred)
        log = StringTrace()
        result = convex_angle(points, trace=log)
        assert exact_convex_check(rational, result.a, result.b, result.c)
        _, fresh = register_points(rational, blurred=blurred)
        derived = verify_bounding(fresh, result.a, result.b, result.c)
        assert derived == result.certificate
        recorded.append((rational, blurred, log.text))
    ARTIFACTS["convex"] = recorded
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"convex suite took {elapsed:.1f}s"


@criterion(7, "wedge fixture completes with no backtracking")
def test_criterion_7_no_backtracking():
    rational = [RationalPoint(Fraction(x), Fraction(y)) for x, y in WEDGE]
    _, points = register_points(rational)
    log = StringTrace()
    result = convex_angle(points, trace=log)
    assert (result.a, result.b, result.c) == (0, 1, 2)
    assert result.restarts == 0
    assert result.state.entries == {}
    ARTIFACTS["wedge"] = log.text


@criterion(8, "collinear input raises DegenerateInput and CLI exits 3")
def test_criterion_8_degeneracy():
    rational = [RationalPoint(Fraction(x), Fraction(y)) for x, y in COLLINEAR]
    _, points = register_points(rational)
    try:
        convex_angle(points)
    except DegenerateInput:
        pass
    else:
        raise AssertionError("collinear points did not raise DegenerateInput")

    fixture = __file__.rsplit("/", 2)[0] + "/fixtures/collinear_points.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "realearn", "convex", fixture],
        capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr


@criterion(9, "traces are byte-identical across repeat runs")
def test_criterion_9_determinism():
    assert "worked" in ARTIFACTS and "wedge" in ARTIFACTS \
        and "convex" in ARTIFACTS, "earlier criteria did not record traces"

    log = StringTrace()
    learn_least(5, ScriptedAuditor(WORKED_SCRIPT),
                empty_state(worked_registry()), 32, log)
    assert log.text == ARTIFACTS["worked"]

    rational = [RationalPoint(Fraction(x), Fraction(y)) for x, y in WEDGE]
    _, points = register_points(rational)
    log = StringTrace()
    convex_angle(points, trace=log)
    assert log.text == ARTIFACTS["wedge"]

    for rational, blurred, first in ARTIFACTS["convex"]:
        _, points = register_points(rational, blurred=blurred)
        log = StringTrace()
        convex_angle(points, trace=log)
        assert log.text == first
