"""Seeded random convex-angle instances audited against the exact oracle.

Each instance draws a general-position point set (distinct y
coordinates, no collinear triple), runs the interval-based
construction, and audits the outcome twice: the chosen triple must
satisfy the closed-form rational bounding condition, and the
certificate must re-derive from scratch with fresh side decisions.
Odd-numbered instances blur every coordinate so the run has to work
at finite precision.  Prints per-instance lines and summary restart
statistics.

The point sets come from the test suite's generators in
``tests/support.py``.  Run from the repository root:

    PYTHONPATH=src python3 scripts/random_convex_experiment.py --instances 50 --seed 3
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random

from realearn.convex import convex_angle, verify_bounding
from realearn.oracle import exact_convex_check

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from support import general_position_points, register_points  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-points", type=int, default=3)
    parser.add_argument("--max-points", type=int, default=20)
    parser.add_argument("--kmax", type=int, default=256,
                        help="precision budget per side decision")
    args = parser.parse_args()
    if args.min_points < 3 or args.max_points < args.min_points:
        parser.error("need max-points >= min-points >= 3")
    if args.instances < 1:
        parser.error("need instances >= 1")
    if args.kmax < 0:
        parser.error("need kmax >= 0")

    rng = Random(args.seed)
    restart_counts = Counter()
    failures = 0
    started = time.perf_counter()
    for run in range(args.instances):
        count = rng.randint(args.min_points, args.max_points)
        pts = general_position_points(rng, count)
        blurred = run % 2 == 1
        _, points = register_points(pts, blurred=blurred)
        result = convex_angle(points, k_max=args.kmax)
        a, b, c = result.a, result.b, result.c

        exact_ok = exact_convex_check(pts, a, b, c)
        try:
            verify_bounding(points, a, b, c, k_max=args.kmax)
            reverify_ok = True
        except Exception as exc:  # report, keep going
            reverify_ok = False
            print(f"  certificate audit failed: {exc}")
        if not (exact_ok and reverify_ok):
            failures += 1

        restart_counts[result.restarts] += 1
        mode = "blurred " if blurred else "rational"
        flag = "" if exact_ok and reverify_ok else "  <-- MISMATCH"
        print(f"[{run:3d}] {count:2d} points {mode} "
              f"-> ({a}, {b}, {c}), {result.restarts} restarts{flag}")
    elapsed = time.perf_counter() - started

    total_restarts = sum(k * v for k, v in restart_counts.items())
    print()
    print(f"{args.instances} instances in {elapsed:.2f}s, "
          f"{failures} oracle mismatches")
    print(f"restarts: total {total_restarts}, "
          f"max {max(restart_counts)}, "
          f"mean {total_restarts / args.instances:.2f}")
    print("restart histogram: "
          + "  ".join(f"{k}:{restart_counts[k]}"
                      for k in sorted(restart_counts)))
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
