"""The command line's observable surface, pinned as one golden table.

Each row runs ``python -m realearn`` from the repository root with the
arguments given, the rows in order and sharing one output directory, so
a later row can read what an earlier one wrote.  The table records each
row's exit code, stdout and stderr, with the output directory written
as ``OUT``, and the sha256 of each ``--trace`` or ``--result`` file the
row names (null when the row left none).  The test compares the
serialised table with ``cli_golden.json`` byte for byte.  Child
processes run with the test's own ``-O`` level.

After a deliberate change of behaviour, rewrite the table with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

REALS = "fixtures/worked_example_reals.jsonl"
SCRIPT = "script:fixtures/worked_example_challenges.jsonl"
QUAD = "fixtures/quad_points.jsonl"

# files written into OUT before the first row
SETUP = {"forced.jsonl": '{"j": 5, "precision": 5, "force": true}\n'}

# (environment overrides, arguments); "OUT/" names the output directory
ROWS = [
    ({}, ["least", REALS]),
    ({}, ["least", REALS, "--auditor", "oracle"]),
    ({}, ["least", REALS, "--auditor", SCRIPT, "--trace", "OUT/least.trace"]),
    ({}, ["least", REALS, "--auditor", SCRIPT, "--max-restarts", "1",
          "--trace", "OUT/budget.trace"]),
    ({}, ["least", REALS, "--auditor", "script:OUT/forced.jsonl",
          "--trace", "OUT/forced.trace"]),
    ({}, ["least", REALS, "--auditor", "clever", "--trace", "OUT/no.trace"]),
    ({}, ["least", QUAD]),
    ({}, ["least", REALS, "--kmax", "-3"]),
    ({"REALEARN_KMAX": "16"}, ["least", REALS, "--auditor", SCRIPT]),
    ({"REALEARN_KMAX": "abc"}, ["least", REALS]),
    ({}, ["least", REALS, "--max-restarts", "-1"]),
    ({}, ["convex", QUAD, "--trace", "OUT/quad.trace",
          "--result", "OUT/quad.json"]),
    ({}, ["convex", "fixtures/wedge_points.jsonl", "--kmax", "64"]),
    ({}, ["convex", "fixtures/collinear_points.jsonl",
          "--trace", "OUT/collinear.trace"]),
    ({}, ["convex", QUAD, "--max-restarts", "0", "--result", "OUT/cut.json"]),
    ({}, ["convex", REALS]),
    ({}, ["convex", QUAD, "--kmax", str(2 ** 20 + 1)]),
    ({}, ["convex", QUAD, "--trace", "OUT/same", "--result", "OUT/same"]),
    ({}, ["check", "OUT/quad.json", QUAD]),
    ({"REALEARN_KMAX": "abc"}, ["check", "OUT/quad.json", QUAD]),
    ({}, ["check", "OUT/quad.json", QUAD, "--kmax", "-1"]),
    ({}, ["check", "OUT/quad.json", "fixtures/wedge_points.jsonl"]),
    ({}, ["check", QUAD, QUAD]),
    ({}, ["check", "OUT/quad.json", REALS]),
    ({}, ["tree", "OUT/least.trace", "OUT/budget.trace"]),
    ({}, ["tree", "OUT/quad.trace", "--n", "-1"]),
    ({}, ["tree", QUAD]),
    ({}, ["convex", QUAD, "--kmax", "abc"]),
    ({}, []),
    ({}, ["convex"]),
    ({}, ["least", REALS, "--verbose"]),
]


def _sha256(path: Path):
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record_table(out: Path) -> str:
    """Run every row with ``out`` as the output directory and return
    the table as JSON text."""
    for name, text in SETUP.items():
        (out / name).write_text(text)
    env = dict(os.environ)
    env.pop("REALEARN_KMAX", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    command = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "realearn"]
    table = []
    for overrides, args in ROWS:
        argv = [arg.replace("OUT/", f"{out}{os.sep}") for arg in args]
        proc = subprocess.run(command + argv, cwd=REPO, capture_output=True,
                              text=True, env={**env, **overrides})
        files = {args[i + 1]: _sha256(Path(argv[i + 1]))
                 for i, arg in enumerate(args)
                 if arg in ("--trace", "--result")}
        table.append({
            "env": overrides,
            "args": args,
            "exit": proc.returncode,
            "stdout": proc.stdout.replace(str(out), "OUT"),
            "stderr": proc.stderr.replace(str(out), "OUT"),
            "files": files,
        })
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def test_the_cli_surface_matches_the_golden_table(tmp_path):
    table = record_table(tmp_path)
    assert table == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(record_table(Path(scratch)), encoding="utf-8")
