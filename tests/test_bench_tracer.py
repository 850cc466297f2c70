"""The benchmark tracer's contract with the program.

``perfbench/tracing.py`` wraps named functions on the realearn modules
and raises ``AttributeError`` from ``install`` when one of them has
left its module.  This test installs it on the modules the suite
imports, runs one construction and one audit through the wrappers, and
checks that ``uninstall`` puts every original back.  It also reads
every evidence chain of one least-element pass and checks that the
tracer counted each ``Step`` built, and it reads the traces of two
runs under the tracer and checks that the read called nothing the
tracer wraps: the benchmark reads each trace with the tracer still
installed.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from realearn.geometry import RationalPoint
from realearn.oracle import OracleAuditor

from support import register_points

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ("reals", "geometry", "knowledge", "least", "convex", "oracle",
           "inputs")
QUAD = [(0, 0), (-1, 1), (1, 1), (0, -1)]


def namespaces(modules):
    """Every module given and every class defined in one, with a copy
    of its attributes."""
    owners = list(modules.values())
    owners += [value for module in modules.values()
               for value in vars(module).values()
               if isinstance(value, type)
               and value.__module__.startswith("realearn.")]
    return [(owner, dict(vars(owner))) for owner in owners]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_on_the_program():
    modules = {name: importlib.import_module(f"realearn.{name}")
               for name in MODULES}
    convex = modules["convex"]
    originals = namespaces(modules)
    # one-interval table points take the generic path, rational and
    # blurred ones the affine path
    for kind in ("table", "rational", "blurred"):
        points = register_points(
            [RationalPoint(Fraction(x), Fraction(y)) for x, y in QUAD],
            blurred=kind == "blurred", table=kind == "table")[1]
        tracer = load_tracing().Tracer()
        try:
            tracer.install(modules)
            result = convex.convex_angle(points)
            convex.verify_bounding(points, result.a, result.b, result.c)
            decided = tracer.calls("geometry.orientation_real")
            modules["geometry"].orientation_real(*points[:3])
        finally:
            tracer.uninstall()

        assert tracer.calls("convex.convex_angle") == 1
        assert tracer.calls("convex.verify_bounding") == 1
        assert tracer.calls("least.least_candidate") == result.restarts + 1
        assert tracer.calls("knowledge.blame") == result.restarts
        # one decision per side event, but a pair that its attempt has
        # decided before, either way round, is recalled and not decided
        # again
        sides = recalled = 0
        for event in result.trace:
            if event.phase == "select-A":
                seen = set()
            elif event.phase == "side":
                pair = frozenset((event.payload["line"][1],
                                  event.payload["point"]))
                sides += 1
                recalled += pair in seen
                seen.add(pair)
        assert recalled > result.restarts + 1
        assert tracer.counts["convex.side_decided"] == sides - recalled
        # side decisions build their orientations without calling
        # orientation_real, whatever the points; the one call made
        # through the patched module is counted, so the wrapper is on
        assert tracer.calls("geometry.decide_side") > 0
        assert decided == 0
        assert tracer.calls("geometry.orientation_real") == 1
    for owner, attrs in originals:
        for attr, value in attrs.items():
            assert vars(owner)[attr] is value, \
                f"{owner.__name__}.{attr} not restored"


def test_benchmark_tracer_counts_every_step_built():
    modules = {name: importlib.import_module(f"realearn.{name}")
               for name in MODULES}
    knowledge = modules["knowledge"]
    reals = register_points(
        [RationalPoint(Fraction(x), Fraction(y)) for x, y in QUAD])[0]
    # over r_0 .. r_5: strict answers at i = 2 and i = 4, assumed elsewhere
    state = knowledge.KnowledgeState(reals, {(0, 2): 1, (2, 4): 3})
    tracer = load_tracing().Tracer()
    try:
        tracer.install(modules)
        cand = modules["least"].least_candidate(state, 5)
        chains = [cand.evidences[j] for j in range(6)]
    finally:
        tracer.uninstall()

    steps = 0
    for ev in chains:
        while isinstance(ev, knowledge.Step):
            steps += 1
            ev = ev.rest
    assert cand.candidate == 4 and steps == 6
    assert tracer.counts["least.steps_built"] == steps


def test_reading_a_trace_calls_nothing_the_tracer_wraps():
    modules = {name: importlib.import_module(f"realearn.{name}")
               for name in MODULES}
    values = [Fraction(-i, 7) for i in range(21)]
    tracer = load_tracing().Tracer()
    try:
        tracer.install(modules)
        reg = modules["reals"].RealRegistry()
        for q in values:
            reg.blurred(q)
        outcome = modules["least"].learn_least(
            20, OracleAuditor(reg, values),
            modules["knowledge"].empty_state(reg))
        points = register_points(
            [RationalPoint(Fraction(x), Fraction(y)) for x, y in QUAD])[1]
        result = modules["convex"].convex_angle(points)
        stats = {name: list(stat) for name, stat in tracer.stats.items()}
        counts = dict(tracer.counts)
        traces = (outcome.trace, result.trace)
    finally:
        tracer.uninstall()

    assert outcome.restarts == 20 and result.restarts == 1
    decides = [sum(1 for event in trace if event.phase == "decide")
               for trace in traces]
    assert decides == [21 * 20, 2 * 3]
    assert stats["least.least_candidate"][0] == 21 + 2
    assert stats["reals.op_at"][0] > 0
    # the read re-ran no pass, looked nothing up and built no evidence:
    # no call count, time or counter moved, least.steps_built included
    assert {name: list(stat) for name, stat in tracer.stats.items()} == stats
    assert dict(tracer.counts) == counts
