"""Fixed-work benchmark for realearn.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload convex-shallow --seed 1 --seconds 20 --trace 0

Every run builds the same seeded corpus and processes it in the same
order: one untimed warm-up op, then one pass over a corpus whose size
follows from ``--seconds`` and the workload's nominal op cost, never
"as many as fit".  Each op is closed-loop and single-threaded, starts
with ``gc.collect()`` outside the timed span and uses fresh realearn
state.  Every output is checked by ``checks``, apart from realearn.
With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` each op of the corpus runs once untraced and once traced,
and the per-layer metrics are printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import checks
import corpus
from tracing import LAYERS, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("reals", "geometry", "knowledge", "least", "convex", "oracle",
           "trace", "inputs", "cli")
SETUP_REPEATS = 15
E2E_UNITS = {"op_p50_ref": "x", "op_mean_ref": "x", "setup_s": "s",
             "peak_rss_mb": "MB"}
REFERENCE_ITERS = 2000
# `python -m realearn` that also reports its own peak RSS.  The rusage of
# a child counts the pages it shared with this process before exec, so
# the child reads VmHWM (the high-water mark of its own memory after
# exec) when it exits and writes it as the last line of stderr.
PEAK_MARK = "perfbench-peak-kb "
CHILD = f"""import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                sys.stderr.write("{PEAK_MARK}" + line.split()[1] + "\\n")
atexit.register(peak)
runpy.run_module("realearn", run_name="__main__", alter_sys=True)
"""


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python Fraction loop (14-26 ms).

    Op times divided by this cancel host-speed drift; it imports
    nothing from realearn.
    """
    start = perf_counter()
    hits = 0
    for i in range(REFERENCE_ITERS):
        a = Fraction(i - 700, 4096)
        b = Fraction(3 * i + 1, 8192)
        if a * b - b < a + b:
            hits += 1
    elapsed = perf_counter() - start
    if hits != 1833:
        raise AssertionError(f"reference loop miscounted: {hits}")
    return elapsed


def import_realearn() -> Dict[str, object]:
    """Import realearn afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m == "realearn" or m.startswith("realearn.")]:
        del sys.modules[name]
    importlib.import_module("realearn")
    return {name: importlib.import_module(f"realearn.{name}") for name in MODULES}


def blurred_points(mods, points):
    """Register points the way the convex construction expects: all y first."""
    registry = mods["reals"].RealRegistry()
    ys = [registry.blurred(y) for _, y in points]
    xs = [registry.blurred(x) for x, _ in points]
    return [mods["geometry"].Point(i, xs[i], ys[i]) for i in range(len(points))]


class Workload:
    """One closed loop of same-sized ops over a seeded corpus."""

    name = ""
    op_seconds = 1.0  # nominal wall time of one op plus its reference loop
    round_size = 1  # ops that make one round of like work

    def op_count(self, seconds: int) -> int:
        """Corpus size: the ops that last ``seconds`` at the nominal cost."""
        return max(1, round(seconds / self.op_seconds))

    def setup(self, rng: Random, count: int, out: Path) -> list:
        """The warm-up item followed by ``count`` op items.

        Shapes come from ``Random(corpus.BASE_SEED)``; ``rng`` (the
        seed) only moves them, which leaves realearn's work unchanged.
        Set-up is repeated during a run and must give the same items.
        """
        raise NotImplementedError

    def begin(self) -> None:
        """Reset the state that checks keep across the ops of one run."""

    def run(self, mods, item):
        raise NotImplementedError

    def check(self, item, output) -> Tuple[bool, Optional[str]]:
        """(failed, error): a failed op is a known fault, an error is wrong output."""
        raise NotImplementedError

    def observe(self, mods, item, output) -> Tuple[List[str], Dict[str, float]]:
        """Serialised trace lines of one traced op, and per-op facts."""
        raise NotImplementedError


class ConvexWorkload(Workload):
    """convex_angle then verify_bounding on blurred general-position points."""

    def __init__(self, name: str, n: int, scale_bits: int, op_seconds: float):
        self.name = name
        self.n = n
        self.scale_bits = scale_bits
        self.op_seconds = op_seconds

    def setup(self, rng, count, out):
        base = Random(corpus.BASE_SEED)
        return [corpus.shift_points(
                    rng, corpus.general_position(base, self.n, self.scale_bits),
                    self.scale_bits)
                for _ in range(count + 1)]

    def run(self, mods, points):
        convex = mods["convex"]
        result = convex.convex_angle(blurred_points(mods, points))
        rederived = convex.verify_bounding(blurred_points(mods, points),
                                           result.a, result.b, result.c)
        return result, rederived

    def check(self, points, output):
        result, rederived = output
        return False, checks.convex_error(points, result.a, result.b, result.c,
                                          result.restarts, result.certificate,
                                          rederived)

    def observe(self, mods, points, output):
        result, _ = output
        sides = sum(1 for e in result.trace if e.phase == "side")
        return ([e.to_json() for e in result.trace],
                {"convex.restarts": result.restarts, "convex.side_queries": sides})


class LeastWorkload(Workload):
    """learn_least under OracleAuditor on strictly descending blurred reals."""

    name = "least-descending"

    def __init__(self, n: int, op_seconds: float):
        self.n = n
        self.op_seconds = op_seconds

    def setup(self, rng, count, out):
        base = Random(corpus.BASE_SEED)
        return [corpus.shift_values(rng, corpus.descending(base, self.n))
                for _ in range(count + 1)]

    def run(self, mods, values):
        registry = mods["reals"].RealRegistry()
        for value in values:
            registry.blurred(value)
        auditor = mods["oracle"].OracleAuditor(registry, values)
        return mods["least"].learn_least(
            self.n, auditor, mods["knowledge"].empty_state(registry), 2 ** self.n)

    def check(self, values, outcome):
        return False, checks.least_error(values, outcome.candidate.candidate,
                                         outcome.restarts,
                                         outcome.state.sorted_entries())

    def observe(self, mods, values, outcome):
        return ([e.to_json() for e in outcome.trace],
                {"least.restarts": outcome.restarts})


class CliWorkload(Workload):
    """`python -m realearn` subcommands in a fixed rotation, one process each."""

    name = "cli-pipeline"
    ROTATION = ("convex", "check", "least", "degenerate", "tree")
    round_size = len(ROTATION)

    def __init__(self, points: int, reals: int, collinear: int, op_seconds: float):
        self.sizes = (points, reals, collinear)
        self.op_seconds = op_seconds
        self.env = dict(os.environ)
        self.env.pop("REALEARN_KMAX", None)
        self.env["PYTHONPATH"] = str(SRC)

    def op_count(self, seconds):
        rounds = round(seconds / (self.op_seconds * len(self.ROTATION)))
        return max(1, rounds) * len(self.ROTATION)

    def setup(self, rng, count, out):
        n_points, n_reals, n_collinear = self.sizes
        base = Random(corpus.BASE_SEED)
        shape = corpus.general_position(base, n_points)
        self.points = corpus.shift_points(rng, shape)
        self.values = corpus.shift_values(rng, corpus.descending(base, n_reals))
        # The tree op replays a trace of the unshifted shape, which no
        # seed changes, so its known failure (see check) is the same in
        # every run.
        self.fixed_points = shape
        out.mkdir(parents=True, exist_ok=True)
        self.paths = {key: out / key for key in (
            "points.jsonl", "reals.jsonl", "collinear.jsonl", "fixed.jsonl",
            "convex.trace", "least.trace", "fixed.trace", "result.json",
            "fixed-result.json")}
        corpus.write_points(self.paths["points.jsonl"], self.points)
        corpus.write_reals(self.paths["reals.jsonl"], self.values)
        corpus.write_points(self.paths["collinear.jsonl"], corpus.shift_points(
            rng, corpus.collinear(base, n_collinear)))
        corpus.write_points(self.paths["fixed.jsonl"], self.fixed_points)
        # The untimed warm-up op writes the trace that every tree op replays.
        return ["fixed"] + list(self.ROTATION) * (count // len(self.ROTATION))

    def begin(self):
        self.seen_traces: Dict[str, bytes] = {}
        self.peak_kb = 0
        self.abc: Optional[Tuple[int, int, int]] = None
        self.fixed_restarts: Optional[int] = None

    def argv(self, kind: str) -> List[str]:
        p = {key: str(path) for key, path in self.paths.items()}
        return {
            "fixed": ["convex", p["fixed.jsonl"], "--trace", p["fixed.trace"],
                      "--result", p["fixed-result.json"]],
            "convex": ["convex", p["points.jsonl"], "--trace", p["convex.trace"],
                       "--result", p["result.json"]],
            "check": ["check", p["result.json"], p["points.jsonl"]],
            "least": ["least", p["reals.jsonl"], "--auditor", "oracle",
                      "--trace", p["least.trace"]],
            "degenerate": ["convex", p["collinear.jsonl"]],
            "tree": ["tree", p["fixed.trace"]],
        }[kind]

    def run(self, mods, kind):
        proc = subprocess.run([sys.executable, "-c", CHILD, *self.argv(kind)],
                              capture_output=True, text=True, env=self.env,
                              timeout=120)
        head, mark, peak = proc.stderr.rpartition(PEAK_MARK)
        if mark:
            proc.stderr = head
            self.peak_kb = max(self.peak_kb, int(peak))
        return proc

    def _same_trace(self, key: str) -> Optional[str]:
        data = self.paths[key].read_bytes()
        first = self.seen_traces.setdefault(key, data)
        return None if data == first else f"{key} differs between invocations"

    def check(self, kind, proc):
        code, out = proc.returncode, proc.stdout
        if kind == "fixed":
            result = json.loads(self.paths["fixed-result.json"].read_text())
            self.fixed_restarts = result["restarts"]
            return False, checks.cli_convex_error(self.fixed_points, code, out, result)
        if kind == "convex":
            result = json.loads(self.paths["result.json"].read_text())
            self.abc = (result["a"], result["b"], result["c"])
            error = checks.cli_convex_error(self.points, code, out, result)
            return False, error or self._same_trace("convex.trace")
        if kind == "check":
            return False, checks.cli_check_error(code, out, self.abc, len(self.points))
        if kind == "least":
            error = checks.cli_least_error(self.values, code, out)
            return False, error or self._same_trace("least.trace")
        if kind == "degenerate":
            return False, checks.cli_degenerate_error(code, proc.stderr)
        if code != 0 and "tree enumeration capped" in proc.stderr:
            # Known fault: oracle.enumerate_tree builds all 2^n leaves and
            # refuses n > 12, so tree on a 20-point trace ends in a traceback.
            return True, None
        if code != 0:
            return False, f"tree exited {code}: {proc.stderr.strip()[-200:]!r}"
        return False, checks.cli_tree_error(out, self.fixed_restarts)

    def observe(self, mods, kind, proc):
        docs = {"convex": "points.jsonl", "check": "points.jsonl",
                "least": "reals.jsonl", "degenerate": "collinear.jsonl"}
        if kind in docs:
            mods["inputs"].load_document(self.paths[docs[kind]])
        traces = {"convex": "convex.trace", "least": "least.trace"}
        lines = []
        if kind in traces:
            lines = self.paths[traces[kind]].read_text().splitlines()
        return lines, {}


WORKLOADS = {w.name: w for w in (
    ConvexWorkload("convex-shallow", n=16, scale_bits=0, op_seconds=0.19),
    ConvexWorkload("convex-deep", n=6, scale_bits=60, op_seconds=0.24),
    LeastWorkload(n=100, op_seconds=0.57),
    CliWorkload(points=20, reals=40, collinear=8, op_seconds=0.24),
)}

PER_LAYER = [
    "reals.registered", "reals.gen_evals", "reals.op_at_calls",
    "reals.evals_per_compare", "reals.max_k", "reals.find_strict_witness_ms",
    "geometry.decide_side_calls", "geometry.decide_side_ms",
    "geometry.levels_scanned", "geometry.witness_p50", "geometry.witness_max",
    "geometry.three_points_calls", "geometry.three_points_ms",
    "least.passes", "least.candidate_ms", "least.steps_built", "least.restarts",
    "knowledge.extend_calls", "knowledge.blame_calls",
    "convex.construct_ms", "convex.construct_self_ms", "convex.verify_ms",
    "convex.restarts", "convex.side_queries", "convex.side_cache_hit_ratio",
    "oracle.challenge_ms", "oracle.challenges", "trace.events", "trace.bytes",
    "cli.startup_ms", "cli.convex_ms", "cli.check_ms", "cli.least_ms",
    "cli.degenerate_ms", "cli.tree_ms", "inputs.load_ms",
] + [f"{layer}.self_ms" for layer in LAYERS] + [
    "bench.trace_overhead_pct", "bench.ops_per_s", "bench.op_p50_ms",
    "bench.ref_p50_ms"]


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name.endswith("per_compare"):
        return "x"
    if name == "trace.bytes":
        return "bytes"
    if name in ("reals.max_k", "geometry.witness_p50", "geometry.witness_max"):
        return "level"
    return "count"


class Run:
    """Counts and verdicts shared by the untraced and traced loops."""

    def __init__(self, workload: Workload, mods):
        self.workload = workload
        self.mods = mods
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def op(self, item, tracer: Optional[Tracer] = None):
        """Run one op: gc outside the span, then the timed call."""
        gc.collect()
        start = perf_counter()
        try:
            if tracer is None:
                output = self.workload.run(self.mods, item)
            else:
                output = tracer.span("bench.op", self.workload.run, self.mods, item)
        except Exception as exc:  # any raise is wrong output, recorded and shown
            output = exc
        return output, perf_counter() - start

    def verdict(self, item, output, counted: bool = True) -> None:
        if counted:
            self.attempted += 1
        if isinstance(output, Exception):
            self.errors.append(f"{item if isinstance(item, str) else 'op'} "
                               f"raised {output!r}")
            return
        try:
            failed, error = self.workload.check(item, output)
        except (OSError, ValueError, KeyError) as exc:
            failed, error = False, f"check could not read the output: {exc!r}"
        if failed and counted:
            self.failed += 1
        if error is not None:
            self.errors.append(error)


def end_to_end(run: Run, ops: list, setup_times: List[float],
               set_up) -> Tuple[Dict[str, float], Dict[str, float]]:
    """One pass over the corpus, a reference loop before and after each op.

    ``set_up`` is repeated between rounds, spread over the run, until
    ``setup_times`` holds SETUP_REPEATS times: set-ups in one burst all
    meet the host at the same speed, and their median jumped by a third
    between runs.

    Returns the gated metrics, in reference units, and the raw wall
    figures.  The host's speed swings between two levels about 2x apart
    many times a second, and the share of slow time drifts over minutes,
    so the raw figures of one corpus differ by a third between runs.
    The reference loops run in the same moments as the ops and slow down
    with them, so op time over reference time cancels the drift.
    ``op_p50_ref`` is the median over rounds of the round's mean ratio: a
    round is one op, or one rotation on cli-pipeline, whose subcommands
    differ in cost.
    """
    size = run.workload.round_size
    every = size * max(1, len(ops) // size // (SETUP_REPEATS - len(setup_times)))
    refs = [reference_loop()]
    times, ratios = [], []
    for i, item in enumerate(ops):
        if i and i % every == 0 and len(setup_times) < SETUP_REPEATS:
            run.mods, _, seconds = set_up()
            setup_times.append(seconds)
        output, seconds = run.op(item)
        refs.append(reference_loop())
        times.append(seconds)
        ratios.append(seconds / ((refs[-2] + refs[-1]) / 2))
        run.verdict(item, output)
    while len(setup_times) < SETUP_REPEATS:
        run.mods, _, seconds = set_up()
        setup_times.append(seconds)
    rounds = [statistics.fmean(ratios[i:i + size])
              for i in range(0, len(ratios), size)]
    if isinstance(run.workload, CliWorkload):
        peak_kb = run.workload.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gated = {
        "op_p50_ref": statistics.median(rounds),
        "op_mean_ref": statistics.fmean(times) / statistics.fmean(refs),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kb / 1024,
    }
    return gated, wall_figures(times, refs)


def wall_figures(times: List[float], refs: List[float]) -> Dict[str, float]:
    """What a user of this host waits for; reported, too unsteady to gate."""
    return {
        "bench.ops_per_s": len(times) / sum(times),
        "bench.op_p50_ms": statistics.median(times) * 1e3,
        "bench.ref_p50_ms": statistics.median(refs) * 1e3,
    }


def per_layer(run: Run, ops: list, spans_path: Path) -> Tuple[Dict[str, float], str]:
    """Each op untraced and traced (alternating which goes first)."""
    tracer = Tracer()
    digest = hashlib.sha256()
    plain, traced, refs = [], [], [reference_loop()]
    facts: Dict[str, float] = {}
    events = 0
    trace_bytes = 0
    cli_times: Dict[str, List[float]] = {}

    def plain_op(item) -> None:
        output, seconds = run.op(item)
        plain.append(seconds)
        refs.append(reference_loop())
        if isinstance(run.workload, CliWorkload):
            cli_times.setdefault(item, []).append(seconds)
        run.verdict(item, output, counted=False)

    def traced_op(op_id: int, item) -> None:
        nonlocal events, trace_bytes
        tracer.op_id = op_id
        tracer.install(run.mods)
        try:
            output, seconds = run.op(item, tracer)
            traced.append(seconds)
            run.verdict(item, output)
            if isinstance(output, Exception):
                return
            lines, op_facts = run.workload.observe(run.mods, item, output)
        finally:
            tracer.uninstall()
        for line in lines:
            digest.update(line.encode() + b"\n")
        events += len(lines)
        trace_bytes += sum(len(line) + 1 for line in lines)
        for key, value in op_facts.items():
            facts[key] = facts.get(key, 0) + value

    for op_id, item in enumerate(ops):
        if op_id % 2 == 0:
            plain_op(item)
            traced_op(op_id, item)
        else:
            traced_op(op_id, item)
            plain_op(item)
    tracer.write_spans(spans_path)

    count = len(ops)
    startup = []
    if isinstance(run.workload, CliWorkload):
        for _ in range(count // len(CliWorkload.ROTATION)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import realearn.cli"],
                           env=run.workload.env, check=True, timeout=60)
            startup.append(perf_counter() - start)

    def per_op(value: float) -> float:
        return value / count

    gen_evals = tracer.counts["reals.gen_evals"]
    compares = tracer.calls("reals.op_at")
    side_queries = facts.get("convex.side_queries", 0)
    witnesses = tracer.witnesses
    metrics = {
        "reals.registered": per_op(tracer.counts["reals.registered"]),
        "reals.gen_evals": per_op(gen_evals),
        "reals.op_at_calls": per_op(compares),
        "reals.evals_per_compare": gen_evals / compares if compares else 0.0,
        "reals.max_k": max(tracer.max_k, 0),
        "reals.find_strict_witness_ms": per_op(tracer.total_ms("reals.find_strict_witness")),
        "geometry.decide_side_calls": per_op(tracer.calls("geometry.decide_side")),
        "geometry.decide_side_ms": per_op(tracer.total_ms("geometry.decide_side")),
        "geometry.levels_scanned": per_op(tracer.counts["geometry.levels"]),
        "geometry.witness_p50": statistics.median(witnesses) if witnesses else 0,
        "geometry.witness_max": max(witnesses, default=0),
        "geometry.three_points_calls": per_op(tracer.calls("geometry.three_points")),
        "geometry.three_points_ms": per_op(tracer.total_ms("geometry.three_points")),
        "least.passes": per_op(tracer.calls("least.least_candidate")),
        "least.candidate_ms": per_op(tracer.total_ms("least.least_candidate")),
        "least.steps_built": per_op(tracer.counts["least.steps_built"]),
        "least.restarts": per_op(facts.get("least.restarts", 0)),
        "knowledge.extend_calls": per_op(tracer.calls("knowledge.extend")),
        "knowledge.blame_calls": per_op(tracer.calls("knowledge.blame")),
        "convex.construct_ms": per_op(tracer.total_ms("convex.convex_angle")),
        "convex.construct_self_ms": per_op(tracer.self_ms("convex.convex_angle")),
        "convex.verify_ms": per_op(tracer.total_ms("convex.verify_bounding")),
        "convex.restarts": per_op(facts.get("convex.restarts", 0)),
        "convex.side_queries": per_op(side_queries),
        "convex.side_cache_hit_ratio": (
            1 - tracer.counts["convex.side_decided"] / side_queries
            if side_queries else 0.0),
        "oracle.challenge_ms": per_op(tracer.total_ms("oracle.challenge")),
        "oracle.challenges": per_op(tracer.calls("oracle.challenge")),
        "trace.events": per_op(events),
        "trace.bytes": per_op(trace_bytes),
        "cli.startup_ms": statistics.median(startup) * 1e3 if startup else 0.0,
        "inputs.load_ms": per_op(tracer.total_ms("inputs.load_document")),
        "bench.trace_overhead_pct":
            (statistics.median(traced) / statistics.median(plain) - 1) * 100,
    }
    for kind in CliWorkload.ROTATION:
        times = cli_times.get(kind)
        metrics[f"cli.{kind}_ms"] = statistics.median(times) * 1e3 if times else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = per_op(tracer.layer_self_ms(layer))
    metrics.update(wall_figures(plain, refs))
    return {name: metrics[name] for name in PER_LAYER}, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fixed-work benchmark for realearn.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20,
                        help="nominal run length; sets the fixed op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "realearn" / "__init__.py").is_file():
        print(f"error: no realearn package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the processes it starts, so the
        # reference loops run where the ops run and meet the same load.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    count = workload.op_count(args.seconds)
    work_dir = OUT / f"{args.workload}-s{args.seed}"
    OUT.mkdir(exist_ok=True)

    def set_up():
        start = perf_counter()
        mods = import_realearn()
        items = workload.setup(Random(args.seed), count, work_dir)
        return mods, items, perf_counter() - start

    mods, items, seconds = set_up()
    workload.begin()
    run = Run(workload, mods)
    warm, ops = items[0], items[1:]
    output, _ = run.op(warm)
    run.verdict(warm, output, counted=False)

    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
        metrics, digest = per_layer(run, ops, spans_path)
        print(f"trace sha256 {args.workload} seed {args.seed}: {digest}")
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics, wall = end_to_end(run, ops, [seconds], set_up)
        for name, value in wall.items():
            print(f"{name:32s} {value:14.4f} {unit_of(name)}  (not gated)")
    for error in run.errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value,
                           "unit": unit_of(name) if args.trace else E2E_UNITS[name]}
                    for name, value in metrics.items()},
    }
    result_path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
