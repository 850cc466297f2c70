"""The scripts under ``scripts/``: each answers ``--help``, and a count
that a script cannot run is a usage error (exit 2), not a traceback.  A
worked-example replay whose restart budget runs out exits 2 too, with
the CLI's one stderr line.  The worked-example replay, a seeded random
convex experiment and the precision report print their recorded
output; ``code_lines.py`` prints counts only and gates nothing."""

import hashlib
import os
import re
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


@pytest.mark.parametrize("budget", [0, 4])
def test_a_replay_over_its_restart_budget_ends_in_one_line(budget):
    # the worked example takes 5 restarts
    proc = run_script("replay_worked_example.py", "--max-restarts",
                      str(budget))
    assert (proc.returncode, proc.stderr) == (2, (
        f"restart budget exhausted: restart {budget + 1} exceeds budget "
        f"{budget}\n"))
    assert proc.stdout.endswith(f"restart budget {budget}\n\n")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, digest", [
    ("replay_worked_example.py",
     "dc8d547672312d07de609b2d5a490d3bf1b9691e1c45ed76232ecca349e1c49f"),
    ("precision_report.py",
     "deab7e55b0daebf07e40e50b42fa3f15bc9926f1736c2bd48ec55a81974782e0"),
])
def test_a_script_prints_its_recorded_output(name, digest):
    proc = run_script(name)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sha256(proc.stdout) == digest


def test_the_random_convex_experiment_prints_its_recorded_output():
    # every line but the timing line is recorded
    proc = run_script("random_convex_experiment.py", "--instances", "10",
                      "--seed", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines(keepends=True)
    timing = [line for line in lines if " instances in " in line]
    assert len(timing) == 1
    assert re.fullmatch(r"10 instances in [0-9.]*s, 0 oracle mismatches\n",
                        timing[0])
    assert sha256("".join(line for line in lines if line not in timing)) == (
        "c72e074b4b420ef0fde8035816a5b467592c0f176c12bd6bfe8f8b9048d286b2")
