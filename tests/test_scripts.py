"""The scripts under ``scripts/``: each answers ``--help``, and a count
that a script cannot run is a usage error (exit 2), not a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=REPO)


@pytest.mark.parametrize("name", [
    "code_lines.py", "precision_report.py", "random_convex_experiment.py",
    "replay_worked_example.py"])
def test_a_script_answers_help(name):
    proc = run_script(name, "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"usage: {name}")


@pytest.mark.parametrize("name, args, message", [
    ("random_convex_experiment.py", ["--instances", "0"],
     "need instances >= 1"),
    ("random_convex_experiment.py", ["--kmax", "-1"], "need kmax >= 0"),
    ("replay_worked_example.py", ["--max-restarts", "-1"],
     "need max-restarts >= 0"),
], ids=["no-instances", "negative-kmax", "negative-max-restarts"])
def test_a_count_a_script_cannot_run_is_a_usage_error(name, args, message):
    proc = run_script(name, *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"usage: {name}")
    assert proc.stderr.endswith(f"\n{name}: error: {message}\n")
    assert "Traceback" not in proc.stderr
