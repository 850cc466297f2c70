"""Seeded random convex-angle instances audited against the exact oracle.

Each instance draws a general-position point set (distinct y
coordinates, no collinear triple), runs the interval-based
construction, and audits the outcome twice: the chosen triple must
satisfy the closed-form rational bounding condition, and the
certificate must re-derive from scratch with fresh side decisions.
Odd-numbered instances blur every coordinate so the run has to work
at finite precision.  Prints per-instance lines and summary restart
statistics.

Run from the repository root:

    python3 scripts/random_convex_experiment.py --instances 50 --seed 3
"""

import argparse
import time
from collections import Counter
from fractions import Fraction
from random import Random

from realearn.convex import convex_angle, verify_bounding
from realearn.geometry import Point, RationalPoint
from realearn.oracle import exact_convex_check, exact_orientation
from realearn.reals import RealRegistry


def general_position_points(rng, count):
    """Rejection sampling: distinct y coordinates, no collinear triple."""
    while True:
        pts = [RationalPoint(Fraction(rng.randint(-2 ** 20, 2 ** 20), 2 ** 12),
                             Fraction(rng.randint(-2 ** 20, 2 ** 20), 2 ** 12))
               for _ in range(count)]
        if len({p.y for p in pts}) != count:
            continue
        if any(exact_orientation(pts[i], pts[j], pts[k]) == 0
               for i in range(count)
               for j in range(i + 1, count)
               for k in range(j + 1, count)):
            continue
        return pts


def register_points(pts, blurred):
    # y coordinates first, so point i's y order lives at real index i
    reg = RealRegistry()
    ctor = reg.blurred if blurred else reg.from_rational
    ys = [ctor(p.y) for p in pts]
    xs = [ctor(p.x) for p in pts]
    return [Point(i, xs[i], ys[i]) for i in range(len(pts))]


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

    rng = Random(args.seed)
    restart_counts = Counter()
    failures = 0
    started = time.perf_counter()
    for run in range(args.instances):
        count = rng.randint(args.min_points, args.max_points)
        pts = general_position_points(rng, count)
        blurred = run % 2 == 1
        points = register_points(pts, blurred)
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
