"""Repeat one workload over consecutive seeds and report its steadiness.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload convex-deep --runs 10 --seed 1

Each run is ``perfbench/run.py`` in its own process, one after another.
For every end-to-end metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (third
minus first quartile, as a share of the median) and that spread as a
share of the metric's bound in ``BENCHMARK.json``.  It also prints the
share of failed ops, which must be the same in every run, and how long
each run took as a whole.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    fail_shares = set()
    for seed in range(args.seed, args.seed + args.runs):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
            return 1
        fail_shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({elapsed:.1f} s): " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, "
          f"failed/attempted {sorted(fail_shares)}")
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'/bound':>7s}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        share = f"{spread / bound:7.2f}" if bound else "      -"
        print(f"{name:14s} {median:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
