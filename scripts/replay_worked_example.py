"""Replay the bundled worked example and print each round of the run.

Loads the six blurred reals and the five-challenge script shipped in
fixtures/, runs the interactive least-element loop, and prints one
block per candidate computation: the decision path, the challenge, who
got blamed, and how the knowledge state grew.  Finishes by walking
the recorded decision paths along the decision tree and comparing the
accepted candidate with the exact argmin.  A ``--max-restarts`` budget
that the run outgrows ends it with exit 2 and one stderr line, as it
ends ``realearn least``.

Run from the repository root:

    PYTHONPATH=src python3 scripts/replay_worked_example.py
"""

import argparse
import sys
from pathlib import Path

from realearn.inputs import build_reals, load_document, load_script
from realearn.knowledge import empty_state
from realearn.least import RestartBudgetExceeded, ScriptedAuditor, learn_least
from realearn.oracle import exact_min_index
from realearn.replay import replay_paths

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from support import StringTrace  # noqa: E402


def print_events(events):
    round_no = 0
    path = []
    for event in events:
        p = event.payload
        if event.phase == "decide":
            path.append("s" if p["decision"] == "strict" else "a")
        elif event.phase == "candidate":
            round_no += 1
            print(f"round {round_no}: path {''.join(path)} "
                  f"-> candidate {p['candidate']}")
            path = []
        elif event.phase == "challenge":
            forced = ", forced" if p["forced"] else ""
            i, j = p["claim"]
            print(f"  challenge j={p['j']} at k={p['precision']}{forced}: "
                  f"claim r{i} <= r{j}")
        elif event.phase == "check":
            print(f"    no counterexample at k={p['precision']}, claim stands")
        elif event.phase == "falsified":
            print(f"    refuted at k={p['precision']}")
        elif event.phase == "blame":
            i, j = p["pair"]
            print(f"    blame falls on assumption r{i} <= r{j}, "
                  f"witness {p['witness']}")
        elif event.phase == "extend":
            entries = ", ".join(f"({e['i']},{e['j']})@{e['witness']}"
                                for e in p["state"])
            print(f"    state now {{{entries}}}")
        elif event.phase == "accept":
            print(f"  accepted after {p['restarts']} restarts")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reals", type=Path,
                        default=ROOT / "fixtures" / "worked_example_reals.jsonl")
    parser.add_argument("--challenges", type=Path,
                        default=ROOT / "fixtures" /
                        "worked_example_challenges.jsonl")
    parser.add_argument("--max-restarts", type=int, default=None,
                        help="restart budget, default 2**n - 1")
    args = parser.parse_args()
    if args.max_restarts is not None and args.max_restarts < 0:
        parser.error("need max-restarts >= 0")

    specs, _ = load_document(args.reals)
    reals = build_reals(specs)
    script = load_script(args.challenges)
    limits = [spec.limit for spec in specs]
    n = len(reals) - 1
    budget = args.max_restarts if args.max_restarts is not None else 2 ** n - 1

    print(f"{len(reals)} reals (n = {n}), blurred around:")
    print("  " + "  ".join(f"r{i}={v}" for i, v in enumerate(limits)))
    print(f"{len(script)} scripted challenges, restart budget {budget}")
    print()

    log = StringTrace()
    try:
        outcome = learn_least(n, ScriptedAuditor(script), empty_state(reals),
                              budget, log)
    except RestartBudgetExceeded as exc:
        print(f"restart budget exhausted: {exc}", file=sys.stderr)
        sys.exit(2)
    events = log.events
    print_events(events)
    print()

    verdict = replay_paths([events], n=n)
    run = verdict.runs[0]
    print(f"replay along the decision tree of depth {n}:")
    print(f"  leaf ranks      {run.leaf_ranks}"
          + ("  (strictly increasing)" if run.progress_ok else "  (REGRESSION)"))
    print(f"  leaf candidates {run.leaf_candidates}")
    print(f"  restarts {run.restarts} <= bound {2 ** n - 1}: "
          f"{'ok' if run.bound_ok else 'VIOLATED'}")

    argmin = exact_min_index(limits)
    agrees = "agrees" if argmin == outcome.candidate.candidate else "DISAGREES"
    print(f"exact argmin: r{argmin} = {limits[argmin]} "
          f"({agrees} with accepted candidate)")


if __name__ == "__main__":
    main()
