"""How much precision each side decision reads, against what it needs.

At precision k an orientation's interval holds the exact value and is
at most 2^-k wide, so it excludes zero once 2^-k is below |orientation|:
no side witness exceeds ``separation_from_gap(|orientation|)``.  For
every side decision of ``convex_angle`` (stages ``init``, ``mutual``,
``scan`` and ``rescan``, from its trace) and of ``verify_bounding``
(stage ``audit``, from its certificate), this script prints the
histogram of that bound minus the witness, the slack, per scale and
stage.  A slack of 0 means the decision read exactly the precision
the exact value allows, and a negative slack would break the bound.

The corpus is fixed: 30 general-position point sets of 3-10 points
from ``random.Random(5)``, with blurred coordinates, scaled by 1,
2^-40 and 2^-60.  Rational coordinates are left out: their intervals
are single points, so every witness is 0 and the slack is the bound.
The point sets come from the test suite's generators in
``tests/support.py``.  Run from the repository root:

    PYTHONPATH=src python3 scripts/precision_report.py
"""

import argparse
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

from realearn.convex import convex_angle, verify_bounding
from realearn.geometry import RationalPoint
from realearn.oracle import separation_from_gap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from support import (StringTrace, general_position_points,  # noqa: E402
                     register_points)

STAGES = ("init", "mutual", "scan", "rescan", "audit")
SCALES = (0, 40, 60)
INSTANCES = 30


def side_decisions(events, audit):
    """``(stage, p, q, r, witness)`` for every side decision of the
    construction's trace ``events`` and of the audit's certificate."""
    for event in events:
        if event.phase == "side":
            payload = event.payload
            yield (payload["stage"], *payload["line"], payload["point"],
                   payload["witness"])
    a, b, c = audit.a, audit.b, audit.c
    yield "audit", a, b, c, audit.c_left
    yield "audit", a, c, b, audit.b_right
    for d in audit.left:
        yield "audit", a, b, d, audit.left[d]
        yield "audit", a, c, d, audit.right[d]


def slack(rational, p, q, r, witness):
    P, Q, R = (rational[i] for i in (p, q, r))
    value = (Q.x - P.x) * (R.y - P.y) - (R.x - P.x) * (Q.y - P.y)
    return separation_from_gap(abs(value)) - witness


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    over = 0
    for shift in SCALES:
        scale = Fraction(1, 2 ** shift)
        histograms = {stage: Counter() for stage in STAGES}
        rng = Random(5)
        for _ in range(INSTANCES):
            rational = [RationalPoint(p.x * scale, p.y * scale) for p in
                        general_position_points(rng, rng.randint(3, 10))]
            _, points = register_points(rational, blurred=True)
            log = StringTrace()
            result = convex_angle(points, trace=log)
            audit = verify_bounding(points, result.a, result.b, result.c)
            for stage, p, q, r, witness in side_decisions(log.events, audit):
                histograms[stage][slack(rational, p, q, r, witness)] += 1
        print("scale", f"2^-{shift}" if shift else 1)
        for stage in STAGES:
            counts = histograms[stage]
            over += sum(n for s, n in counts.items() if s < 0)
            cells = "  ".join(f"{s}:{counts[s]}" for s in sorted(counts))
            print(f"  {stage:<7}{sum(counts.values()):5d} decisions  "
                  f"slack {cells}")
    print(f"{over} decisions over the bound")
    if over:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
