import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path
from random import Random

import pytest

from realearn.replay import replay_paths
from realearn.trace import read_trace
from support import PYTHON, general_position_points

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
WORKED_REALS = FIXTURES / "worked_example_reals.jsonl"
WORKED_SCRIPT = FIXTURES / "worked_example_challenges.jsonl"
WEDGE = FIXTURES / "wedge_points.jsonl"
QUAD = FIXTURES / "quad_points.jsonl"
COLLINEAR = FIXTURES / "collinear_points.jsonl"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("REALEARN_KMAX", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*PYTHON, "-m", "realearn", *map(str, args)],
        capture_output=True, text=True, env=env)


def test_least_null_auditor():
    proc = run_cli("least", WORKED_REALS)
    assert proc.returncode == 0
    assert "candidate: 0" in proc.stdout
    assert "restarts: 0" in proc.stdout


def test_least_scripted_run(tmp_path):
    trace = tmp_path / "least.trace"
    proc = run_cli("least", WORKED_REALS,
                   "--auditor", f"script:{WORKED_SCRIPT}",
                   "--trace", trace)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[:2] == ["candidate: 4", "restarts: 5"]
    assert '"state": ' not in proc.stdout  # canonical separators, no spaces
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    candidates = [e["candidate"] for e in events if e["phase"] == "candidate"]
    assert candidates == [0, 3, 2, 3, 1, 4]


def test_least_oracle_auditor():
    proc = run_cli("least", WORKED_REALS, "--auditor", "oracle")
    assert proc.returncode == 0
    assert "candidate: 4" in proc.stdout
    assert "restarts: 2" in proc.stdout


def test_least_budget_exhaustion():
    proc = run_cli("least", WORKED_REALS,
                   "--auditor", f"script:{WORKED_SCRIPT}",
                   "--max-restarts", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("restart budget exhausted: "
                           "restart 2 exceeds budget 1\n")


@pytest.mark.parametrize("case", ["least-budget", "convex-budget", "forced",
                                  "degenerate"])
def test_failed_run_writes_its_partial_trace(tmp_path, case):
    forced = tmp_path / "forced.jsonl"
    forced.write_text(json.dumps({"j": 5, "precision": 5, "force": True}) + "\n")
    args, code, last = {
        "least-budget": (("least", WORKED_REALS, "--auditor",
                          f"script:{WORKED_SCRIPT}", "--max-restarts", "1"),
                         2, ("extend", {"pair": [0, 2], "witness": 33})),
        "convex-budget": (("convex", QUAD, "--max-restarts", "0"),
                          2, ("extend", {"pair": [0, 3], "witness": 0})),
        "forced": (("least", WORKED_REALS, "--auditor", f"script:{forced}"),
                   4, ("challenge", {"j": 5, "precision": 5, "forced": True})),
        "degenerate": (("convex", COLLINEAR),
                       3, ("select-A", {"candidate": 0, "state": []})),
    }[case]
    trace = tmp_path / "partial.trace"
    proc = run_cli(*args, "--trace", trace)
    assert proc.returncode == code
    events = list(read_trace(trace))
    assert [e.seq for e in events] == list(range(len(events)))
    phase, payload = last
    assert events[-1].phase == phase
    assert payload.items() <= events[-1].payload.items()


def test_input_error_writes_no_trace(tmp_path):
    two = tmp_path / "two.jsonl"
    two.write_text("".join(WEDGE.read_text().splitlines(True)[:2]))
    trace = tmp_path / "partial.trace"
    proc = run_cli("convex", two, "--trace", trace)
    assert proc.returncode == 1
    assert not trace.exists()


def test_input_error_removes_no_trace_that_is_not_a_regular_file(
        tmp_path, monkeypatch, capsys):
    # run as root, removing the trace path /dev/null would delete the device
    from realearn import cli

    two = tmp_path / "two.jsonl"
    two.write_text("".join(WEDGE.read_text().splitlines(True)[:2]))
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    statuses = [cli.main(["convex", str(two), "--trace", trace])
                for trace in (os.devnull, str(tmp_path / "run.trace"))]
    assert statuses == [1, 1]
    capsys.readouterr()
    assert removed == [str(tmp_path / "run.trace")]


def test_unwritable_result_writes_no_trace(tmp_path):
    trace = tmp_path / "quad.trace"
    proc = run_cli("convex", QUAD, "--trace", trace,
                   "--result", tmp_path / "missing" / "quad.json")
    assert_input_error(proc, "No such file or directory")
    assert proc.stdout == ""
    assert not trace.exists()


def test_unwritable_trace_leaves_no_result(tmp_path):
    result = tmp_path / "quad.json"
    proc = run_cli("convex", QUAD, "--result", result,
                   "--trace", tmp_path / "missing" / "quad.trace")
    assert_input_error(proc, "No such file or directory")
    assert proc.stdout == ""
    assert not result.exists()
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a device every write to fails")
def test_a_trace_that_fails_on_its_last_write_leaves_no_result(tmp_path):
    # the quad trace fits the file's buffer, so its one failing write is
    # the flush, which must come before the result is written
    result = tmp_path / "quad.json"
    proc = run_cli("convex", QUAD, "--trace", "/dev/full", "--result", result)
    assert_input_error(proc, "No space left on device")
    assert proc.stdout == ""
    assert not result.exists()


def test_least_rejects_unknown_auditor():
    proc = run_cli("least", WORKED_REALS, "--auditor", "clever")
    assert proc.returncode == 1
    assert "input error" in proc.stderr


def test_kmax_env_caps_script_precision():
    proc = run_cli("least", WORKED_REALS,
                   "--auditor", f"script:{WORKED_SCRIPT}",
                   env_extra={"REALEARN_KMAX": "16"})
    assert proc.returncode == 1
    assert "exceeds kmax 16" in proc.stderr


def test_kmax_flag_wins_over_env():
    proc = run_cli("least", WORKED_REALS,
                   "--auditor", f"script:{WORKED_SCRIPT}",
                   "--kmax", "64",
                   env_extra={"REALEARN_KMAX": "16"})
    assert proc.returncode == 0


def test_kmax_env_must_be_an_integer():
    proc = run_cli("least", WORKED_REALS,
                   env_extra={"REALEARN_KMAX": "many"})
    assert proc.returncode == 1
    assert "REALEARN_KMAX" in proc.stderr


def test_kmax_flag_must_not_be_negative():
    for args in (("convex", WEDGE), ("least", WORKED_REALS)):
        proc = run_cli(*args, "--kmax", "-3")
        assert proc.returncode == 1
        assert proc.stderr == "input error: --kmax must be >= 0, got -3\n"


KMAX_CEILING = 2 ** 20


@pytest.mark.parametrize("source", ["flag", "env", "result"])
def test_kmax_has_a_ceiling_of_2_to_the_20(tmp_path, source):
    # (0, 0), (1, 1) and (2, 2) are collinear, so every run below probes
    # up to its kmax; a probe at k handles k-bit integers, so kmax 10^12
    # ran for minutes before the ceiling
    points = tmp_path / "diagonal.jsonl"
    points.write_text("".join(
        json.dumps({"type": "point", "index": i,
                    "x": {"kind": "blurred", "value": str(x)},
                    "y": {"kind": "blurred", "value": str(y)}}) + "\n"
        for i, (x, y) in enumerate([(0, 0), (1, 1), (2, 2), (5, -1)])))
    result = tmp_path / "result.json"

    def run(kmax):
        if source == "flag":
            return run_cli("convex", points, "--kmax", kmax)
        if source == "env":
            return run_cli("convex", points,
                           env_extra={"REALEARN_KMAX": str(kmax)})
        result.write_text(json.dumps({"type": "convex-result", "a": 0,
                                      "b": 1, "c": 2, "kmax": kmax}))
        return run_cli("check", result, points)

    proc = run(KMAX_CEILING)
    # check reports the audit's degenerate clause as a verification failure
    assert proc.returncode == (4 if source == "result" else 3)
    assert proc.stderr.endswith(f"within precision {KMAX_CEILING}\n")
    name = {"flag": "--kmax", "env": "REALEARN_KMAX",
            "result": f"{result}: kmax"}[source]
    for kmax in (KMAX_CEILING + 1, 10 ** 12):
        assert_input_error(run(kmax), f"{name} must be at most {KMAX_CEILING} "
                                      f"(2^20), got {kmax}\n")


@pytest.mark.parametrize("args, message", [
    (("convex", QUAD, "--kmax", "abc"),
     "argument --kmax: invalid int value: 'abc'"),
    (("bogus",), "argument command: invalid choice: 'bogus'"),
    ((), "the following arguments are required: command"),
    (("convex",), "the following arguments are required: input"),
    (("least", WORKED_REALS, "--verbose"), "unrecognized arguments: --verbose"),
], ids=["bad-int", "unknown-command", "no-command", "no-input", "unknown-flag"])
def test_usage_errors_are_one_line_input_errors(args, message):
    # exit 2 is the restart budget's code, never a usage error's
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"input error: {message}")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_help_exits_0():
    for args in (("-h",), ("convex", "-h")):
        proc = run_cli(*args)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: realearn")


def test_import_loads_no_dataclasses_or_inspect():
    # compared with the same interpreter before the import, so modules
    # that site loads at start-up do not count
    probe = ("import sys; before = set(sys.modules); import realearn.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    added = set(proc.stdout.split())
    assert "realearn.cli" in added
    assert not added & {"dataclasses", "inspect", "ast"}


def test_convex_wedge():
    proc = run_cli("convex", WEDGE)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "apex: 0"
    assert lines[1] == "rays: 1 2"
    assert lines[2] == "restarts: 0"
    assert lines[4] == "state: []"


def test_convex_quad_with_result_and_check(tmp_path):
    result = tmp_path / "quad.json"
    proc = run_cli("convex", QUAD, "--result", result)
    assert proc.returncode == 0
    assert "apex: 3" in proc.stdout
    record = json.loads(result.read_text())
    assert (record["a"], record["b"], record["c"]) == (3, 2, 1)
    assert record["state"] == [{"i": 0, "j": 3, "witness": 0}]

    check = run_cli("check", result, QUAD)
    assert check.returncode == 0
    assert check.stdout.startswith("ok:")


def test_check_rejects_tampered_result(tmp_path):
    result = tmp_path / "quad.json"
    run_cli("convex", QUAD, "--result", result)
    record = json.loads(result.read_text())
    record["b"], record["c"] = record["c"], record["b"]
    result.write_text(json.dumps(record))
    check = run_cli("check", result, QUAD)
    assert check.returncode == 4
    assert "verification failed" in check.stderr
    assert "mutual pair" in check.stderr

    # the rays restored, only the stored certificate tampered with
    record["b"], record["c"] = record["c"], record["b"]
    record["certificate"]["c_left"] += 1
    result.write_text(json.dumps(record))
    check = run_cli("check", result, QUAD)
    assert check.returncode == 4
    assert check.stdout == ""
    assert check.stderr == ("verification failed: stored certificate does "
                            "not match re-derived witnesses\n")


@pytest.mark.parametrize("change", [
    {"left": [[0, False]]}, {"left": [[False, 0]]}, {"right": [[0, 0.0]]},
    {"c_left": 0.0}, {"b_right": False}])
def test_check_compares_the_stored_certificate_type_exactly(tmp_path, change):
    # each stored value equals the derived 0 under ==, but no run writes it
    result = tmp_path / "quad.json"
    run_cli("convex", QUAD, "--result", result)
    record = json.loads(result.read_text())
    certificate = record["certificate"]
    assert certificate == {"left": [[0, 0]], "right": [[0, 0]], "c_left": 0,
                           "b_right": 0}
    record["certificate"] = {**certificate, **change}
    result.write_text(json.dumps(record))
    check = run_cli("check", result, QUAD)
    assert check.returncode == 4
    assert check.stdout == ""
    assert check.stderr == ("verification failed: stored certificate does "
                            "not match re-derived witnesses\n")


def test_check_rejects_boolean_point_indices(tmp_path):
    result = tmp_path / "quad.json"
    run_cli("convex", QUAD, "--result", result)
    record = json.loads(result.read_text())
    assert record["c"] == 1
    record["c"] = True
    del record["certificate"]
    result.write_text(json.dumps(record))
    proc = run_cli("check", result, QUAD)
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {result}: a, b, c must be integers\n"
    assert proc.returncode == 1


@pytest.mark.parametrize("change, code, stderr", [
    # a malformed entry is reported before any entry's witness is tested
    ({"state": [{"i": 0, "j": 1, "witness": 0}, {"i": 5, "j": 9, "witness": 3}],
      "restarts": 77},
     1, "input error: {result}: state entry 1 must name two points 0..3 and "
        "a witness 0..256\n"),
    ({"state": [{"i": 0, "j": 1, "witness": 0}]},
     4, "verification failed: state entry (0, 1): op_at(y_1, y_0, 0) is "
        "false\n"),
    ({"restarts": 2},
     4, "verification failed: restarts 2 is not the state's entry count 1\n"),
    ({"state": "nonsense"},
     1, "input error: {result}: state must be a list of entries\n"),
    # under the empty state a pass proposes point 0, not the apex 3
    ({"state": [], "restarts": 0},
     4, "verification failed: apex 3 is not the least-element candidate 0 "
        "of the recorded state\n"),
    # each entry holds, but no run learns a pair twice or a pair (i, j)
    # with j <= i: every blamed pair is (candidate, j) with j above it
    ({"state": [{"i": 0, "j": 3, "witness": 0}, {"i": 0, "j": 3, "witness": 0}],
      "restarts": 2},
     4, "verification failed: state entry (0, 3) repeats an earlier entry\n"),
    ({"state": [{"i": 0, "j": 3, "witness": 0}, {"i": 1, "j": 0, "witness": 0}],
      "restarts": 2},
     4, "verification failed: state entry (1, 0): j is not above i, so no run "
        "blames it\n"),
], ids=["no-point-9", "unsound", "restarts-off-by-one", "not-a-list", "apex",
        "repeat", "reversed"])
def test_check_audits_the_recorded_state_and_restarts(tmp_path, change, code,
                                                       stderr):
    result = tmp_path / "quad.json"
    run_cli("convex", QUAD, "--result", result)
    record = json.loads(result.read_text())
    assert (record["state"], record["restarts"]) == (
        [{"i": 0, "j": 3, "witness": 0}], 1)
    result.write_text(json.dumps({**record, **change}))
    proc = run_cli("check", result, QUAD)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == stderr.format(result=result)


def test_check_rejects_every_malformed_state_entry(tmp_path):
    result = tmp_path / "quad.json"
    run_cli("convex", QUAD, "--result", result)
    record = json.loads(result.read_text())
    sound = {"i": 0, "j": 3, "witness": 0}
    for entry in ([0, 3, 0], {"i": 0, "j": 3}, {**sound, "witness": True},
                  {**sound, "i": "0"}, {**sound, "j": -1}, {**sound, "i": 4},
                  {**sound, "witness": -1}, {**sound, "witness": 257},
                  {**sound, "witness": 0.0}):
        record["state"] = [sound, entry]
        result.write_text(json.dumps(record))
        assert_input_error(run_cli("check", result, QUAD),
                           f"{result}: state entry 1 must name two points")
    record["state"] = [sound]
    for restarts in (-1, True, "1"):
        record["restarts"] = restarts
        result.write_text(json.dumps(record))
        assert_input_error(run_cli("check", result, QUAD),
                           f"{result}: restarts must be")
    # the witness range is the audit's own kmax, here --kmax
    record.update(restarts=1, state=[{**sound, "witness": 65}])
    result.write_text(json.dumps(record))
    assert_input_error(run_cli("check", result, QUAD, "--kmax", "64"),
                       "a witness 0..64")


# each place a document, a challenge script or a result file must hold
# a JSON integer: (file, field) and the message that rejects anything else
INTEGER_SITES = {
    "point index": ("document", "index",
                    "{path}:1: point index must be an integer"),
    "challenge j": ("script", "j",
                    "{path}:1: challenge needs integer j and precision"),
    "challenge precision": ("script", "precision",
                            "{path}:1: challenge needs integer j and precision"),
    **{f"result {key}": ("result", key, "{path}: a, b, c must be integers")
       for key in "abc"},
    "result kmax": ("result", "kmax", "{path}: kmax must be an integer, got {value!r}"),
    "result restarts": ("result", "restarts",
                        "{path}: restarts must be an integer, got {value!r}"),
    **{f"state entry {key}": ("state", key,
                              "{path}: state entry 0 must name two points 0..3 "
                              "and a witness 0..256")
       for key in ("i", "j", "witness")},
}


@pytest.mark.parametrize("value", [True, False, 1.0],
                         ids=["true", "false", "1.0"])
@pytest.mark.parametrize("site", list(INTEGER_SITES))
def test_a_json_integer_is_never_a_boolean_or_a_float(tmp_path, capsys, site,
                                                      value):
    from realearn import cli

    kind, key, message = INTEGER_SITES[site]
    path = tmp_path / f"{kind}.json"
    if kind == "document":
        path.write_text(json.dumps({"type": "point", key: value, "x": "0/1",
                                    "y": "0/1"}) + "\n")
        argv = ["convex", str(path)]
    elif kind == "script":
        path.write_text(json.dumps({"j": 1, "precision": 3, key: value}) + "\n")
        argv = ["least", str(WORKED_REALS), "--auditor", f"script:{path}"]
    else:
        status = cli.main(["convex", str(QUAD), "--result", str(path)])
        assert status == 0
        record = json.loads(path.read_text())
        if kind == "state":
            record["state"] = [{**record["state"][0], key: value}]
        else:
            record[key] = value
        path.write_text(json.dumps(record))
        argv = ["check", str(path), str(QUAD)]
    capsys.readouterr()
    status = cli.main(argv)
    assert status == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message.format(path=path, value=value)}\n"


def write_points(path, points):
    """A document of the rational points ``points``, in index order."""
    with path.open("w") as handle:
        for i, point in enumerate(points):
            coords = {axis: {"kind": "rational", "value": str(value)}
                      for axis, value in (("x", point.x), ("y", point.y))}
            handle.write(json.dumps({"type": "point", "index": i, **coords}))
            handle.write("\n")


@pytest.mark.parametrize("change, code, stderr", [
    ({}, 0, ""),
    ("reversed", 0, ""),
    ({"a": 3}, 4, "verification failed: apex 3 is not the least-element "
                  "candidate 9 of the recorded state\n"),
    ({"a": 8}, 4, "verification failed: apex 8 is not the least-element "
                  "candidate 9 of the recorded state\n"),
], ids=["as-written", "reversed", "apex-3", "apex-8"])
def test_check_follows_the_chain_of_a_learned_state(tmp_path, change, code,
                                                     stderr):
    # ten seeded points whose run restarts three times, each learned pair
    # the successor of the one before: the chain 0 -> 3 -> 8 -> 9
    doc = tmp_path / "points.jsonl"
    write_points(doc, general_position_points(Random(55), 10))
    result = tmp_path / "result.json"
    assert run_cli("convex", doc, "--result", result).returncode == 0
    record = json.loads(result.read_text())
    assert (record["a"], record["restarts"]) == (9, 3)
    assert [(e["i"], e["j"]) for e in record["state"]] == [(0, 3), (3, 8),
                                                           (8, 9)]
    # the chain does not depend on the order of the entries
    if change == "reversed":
        change = {"state": record["state"][::-1]}
    result.write_text(json.dumps({**record, **change}))
    proc = run_cli("check", result, doc)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert proc.stdout.startswith("ok: apex 9") == (code == 0)


def test_check_leaves_a_missing_state_or_restarts_unclaimed(tmp_path):
    result = tmp_path / "quad.json"
    run_cli("convex", QUAD, "--result", result)
    record = json.loads(result.read_text())
    for missing in (("state",), ("restarts",), ("state", "restarts")):
        kept = {key: value for key, value in record.items()
                if key not in missing}
        result.write_text(json.dumps(kept))
        proc = run_cli("check", result, QUAD)
        assert (proc.returncode, proc.stderr) == (0, ""), missing
    # a present but empty state claims that the run never restarted
    record["state"] = []
    result.write_text(json.dumps(record))
    proc = run_cli("check", result, QUAD)
    assert proc.returncode == 4
    assert proc.stderr.endswith("restarts 1 is not the state's entry count 0\n")


def test_check_audits_a_deep_state_at_its_witness(tmp_path):
    # points on a 2^-72 grid: the recorded state entry needs a witness
    # near 50, and the same entry at witness 0 does not hold
    rng = Random(60)
    doc = tmp_path / "deep.jsonl"
    doc.write_text("".join(json.dumps({
        "type": "point", "index": i,
        **{axis: {"kind": "blurred",
                  "value": f"{rng.randint(-2 ** 20, 2 ** 20)}/{2 ** 72}"}
           for axis in ("x", "y")}}) + "\n" for i in range(8)))
    result = tmp_path / "deep.json"
    assert run_cli("convex", doc, "--result", result).returncode == 0
    record = json.loads(result.read_text())
    assert record["restarts"] == len(record["state"]) > 0
    assert min(entry["witness"] for entry in record["state"]) > 40
    assert run_cli("check", result, doc).returncode == 0
    record["state"][0]["witness"] = 0
    result.write_text(json.dumps(record))
    proc = run_cli("check", result, doc)
    assert proc.returncode == 4
    assert proc.stderr.endswith(", 0) is false\n")


def test_convex_collinear_exits_3():
    proc = run_cli("convex", COLLINEAR)
    assert proc.returncode == 3
    assert "degenerate input" in proc.stderr
    assert "(0, 2, 1)" in proc.stderr


def test_convex_missing_file_exits_1():
    proc = run_cli("convex", "no-such-file.jsonl")
    assert proc.returncode == 1
    assert "input error" in proc.stderr


def test_convex_two_points_exits_1(tmp_path):
    two = tmp_path / "two.jsonl"
    two.write_text("".join(WEDGE.read_text().splitlines(True)[:2]))
    proc = run_cli("convex", two)
    assert proc.returncode == 1
    assert "input error" in proc.stderr
    assert "need at least 3 points, got 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tree_rejects_a_file_that_is_not_a_trace():
    proc = run_cli("tree", WEDGE)
    assert proc.returncode == 1
    assert proc.stderr == (f"input error: {WEDGE}:1: "
                           "trace event has no 'seq'\n")


def test_tree_replays_least_trace(tmp_path):
    trace = tmp_path / "least.trace"
    run_cli("least", WORKED_REALS, "--auditor", f"script:{WORKED_SCRIPT}",
            "--trace", trace)
    proc = run_cli("tree", trace)
    assert proc.returncode == 0
    assert "n: 5" in proc.stdout
    assert "leaves: 0 4 8 12 16 18" in proc.stdout
    assert "progress: ok" in proc.stdout

    wrong_n = run_cli("tree", trace, "--n", "3")
    assert wrong_n.returncode == 4


@pytest.mark.parametrize("tamper, stderr", [
    ({'"decision":"assume"': '"decision":"bogus"'},
     "decision 'bogus' at tree node (0, 1) is neither 'assume' nor 'strict'"),
    ({'"candidate":0,': '"candidate":false,'},
     "leaf candidate 0 does not match reported candidate False"),
    ({'"candidate":0,': '"candidate":false,',
      '"pair":[0,1]': '"pair":[false,true]'},
     "decision pair [False, True] does not match tree node (0, 1)"),
    # the numbers the tree does not fix: each used to replay as ok
    ({'"count":1': '"count":7'}, "restart count 7 does not match restart 1"),
    ({'"step":2': '"step":9'}, "decision step 9 does not match depth 2"),
    ({'"seq":3,': '"seq":99,'}, "event seq 99 does not match position 3"),
], ids=["decision-bogus", "candidate-false", "pair-and-candidate-false",
        "count", "step", "seq"])
def test_tree_rejects_a_tampered_worked_example(tmp_path, tamper, stderr):
    # == takes false for 0 and true for 1, and a decision other than
    # "strict" used to count as "assume"
    trace = tmp_path / "least.trace"
    run_cli("least", WORKED_REALS, "--auditor", "oracle", "--trace", trace)
    text = trace.read_text()
    for old, new in tamper.items():
        assert old in text
        text = text.replace(old, new, 1)
    trace.write_text(text)
    proc = run_cli("tree", trace)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == f"replay failed: {stderr}\n"


def test_tree_replays_convex_trace(tmp_path):
    trace = tmp_path / "quad.trace"
    run_cli("convex", QUAD, "--trace", trace)
    proc = run_cli("tree", trace)
    assert proc.returncode == 0
    assert "n: 3" in proc.stdout

    wrong_n = run_cli("tree", trace, "--n", "2")
    assert wrong_n.returncode == 4
    assert wrong_n.stdout == ""
    assert wrong_n.stderr == ("replay failed: path length 3 "
                              "does not match n = 2\n")


def test_tree_n_must_not_be_negative(tmp_path):
    trace = tmp_path / "quad.trace"
    run_cli("convex", QUAD, "--trace", trace)
    proc = run_cli("tree", trace, "--n", "-1")
    assert_input_error(proc)
    assert proc.stdout == ""
    assert proc.stderr == "input error: --n must be >= 0, got -1\n"
    zero = run_cli("tree", trace, "--n", "0")
    assert zero.returncode == 4
    assert zero.stderr == ("replay failed: path length 3 "
                           "does not match n = 0\n")


def test_tree_reports_an_input_error_in_any_trace_before_a_mismatch(
        tmp_path):
    wrong = tmp_path / "wrong.trace"
    wrong.write_text('{"decision":"assume","pair":[0,2],"phase":"decide",'
                     '"seq":0,"step":1}\n{"candidate":0,"phase":"candidate",'
                     '"seq":1}\n')
    proc = run_cli("tree", wrong)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("replay failed: decision pair [0, 2] "
                           "does not match tree node (0, 1)\n")
    malformed = tmp_path / "malformed.trace"
    malformed.write_text('{"candidate":0,"phase":"candidate","seq":0}\n'
                         '{"phase":"accept","seq":1}\n{not json\n')
    proc = run_cli("tree", wrong, malformed)
    assert_input_error(proc)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"input error: {malformed}:3: invalid JSON: ")
    missing = tmp_path / "missing.trace"
    proc = run_cli("tree", wrong, missing)
    assert_input_error(proc, str(missing))
    assert proc.stdout == ""
    # a trace with no candidate line fails in any position, first even
    # when --n is given, and after a trace that replays
    restart = tmp_path / "restart.trace"
    restart.write_text('{"count":1,"phase":"restart","seq":0}\n')
    good = tmp_path / "good.trace"
    good.write_text('{"candidate":0,"phase":"candidate","seq":0}\n')
    assert run_cli("tree", good).returncode == 0
    for args in ((restart, "--n", "1"), (good, restart)):
        proc = run_cli("tree", *args)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == ("replay failed: run contains no candidate "
                               "computations\n")


def test_tree_replays_a_20_point_convex_trace(tmp_path):
    doc = tmp_path / "points.jsonl"
    write_points(doc, general_position_points(Random(20), 20))
    trace = tmp_path / "convex.trace"
    assert run_cli("convex", doc, "--trace", trace).returncode == 0
    proc = run_cli("tree", trace)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "n: 19" in proc.stdout
    assert "progress: ok" in proc.stdout


def test_tree_prints_a_leaf_rank_past_the_int_digit_limit(tmp_path):
    # 14,300 strict decisions make a rank of 4305 decimal digits, past
    # the 4300 that str(int) prints
    n = 14300
    trace = tmp_path / "strict.trace"
    with trace.open("w") as handle:
        for depth in range(1, n + 1):
            handle.write(json.dumps({
                "seq": depth - 1, "phase": "decide", "step": depth,
                "pair": [depth - 1, depth], "decision": "strict",
                "witness": 0}) + "\n")
        handle.write(json.dumps({"seq": n, "phase": "candidate",
                                 "candidate": n}) + "\n")
    proc = run_cli("tree", trace)
    assert proc.returncode == 0
    assert proc.stderr == ""
    [rank] = replay_paths([read_trace(trace)]).runs[0].leaf_ranks
    assert rank == 2 ** n - 1
    [digits] = [line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("  leaves: ")]
    assert digits.isdigit() and Decimal(digits) == rank


def test_traces_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    for path in (a, b):
        run_cli("least", WORKED_REALS, "--auditor",
                f"script:{WORKED_SCRIPT}", "--trace", path)
    assert a.read_bytes() == b.read_bytes()
    for path in (a, b):
        run_cli("convex", WEDGE, "--trace", path)
    assert a.read_bytes() == b.read_bytes()


def test_cli_least_trace_is_pinned(tmp_path):
    # the 61 descending values of test_oracle_traces_are_pinned: the file
    # the CLI writes from its log has the digest of the built events
    doc = tmp_path / "desc61.jsonl"
    doc.write_text("".join(
        json.dumps({"type": "real", "kind": "blurred", "value": f"{60 - i}/3"})
        + "\n" for i in range(61)))
    trace = tmp_path / "desc61.trace"
    proc = run_cli("least", doc, "--auditor", "oracle", "--trace", trace)
    assert proc.returncode == 0
    assert "restarts: 60" in proc.stdout
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "2787f8f650dcd7de621d2b83016e4f6384a7c85a1ffb530fbf5756792a83c0d5")


def test_a_run_without_trace_records_into_a_null_log(tmp_path, monkeypatch,
                                                     capsys):
    # an untraced run must keep nothing alive for a trace nobody reads
    import realearn.convex
    import realearn.least
    from realearn import cli
    from realearn.trace import NullLog, TraceFile

    logs = []
    learn_least = realearn.least.learn_least
    convex_angle = realearn.convex.convex_angle

    def recording_least(n, auditor, initial, max_restarts, trace):
        logs.append(type(trace))
        return learn_least(n, auditor, initial, max_restarts, trace)

    def recording_convex(points, trace, **kwargs):
        logs.append(type(trace))
        return convex_angle(points, trace=trace, **kwargs)

    monkeypatch.setattr(realearn.least, "learn_least", recording_least)
    monkeypatch.setattr(realearn.convex, "convex_angle", recording_convex)
    for extra in ([], ["--trace", str(tmp_path / "run.trace")]):
        statuses = [cli.main(["least", str(WORKED_REALS), "--auditor",
                              "oracle", *extra]),
                    cli.main(["convex", str(QUAD), *extra])]
        assert statuses == [0, 0]
    capsys.readouterr()
    assert logs == [NullLog, NullLog, TraceFile, TraceFile]


@pytest.mark.parametrize("case", ["trace-is-result", "trace-is-input",
                                  "result-is-input", "least-trace-is-input",
                                  "result-links-to-trace"])
def test_an_output_naming_the_input_or_the_other_output_is_an_input_error(
        tmp_path, case):
    # the two outputs would interleave, and an output would overwrite the
    # document it is made from
    points, reals = tmp_path / "quad.jsonl", tmp_path / "reals.jsonl"
    points.write_bytes(QUAD.read_bytes())
    reals.write_bytes(WORKED_REALS.read_bytes())
    out, link, sub = tmp_path / "out", tmp_path / "link", tmp_path / "sub"
    link.symlink_to(out)
    sub.mkdir()
    args = {
        "trace-is-result": ("convex", points, "--trace", out,
                            "--result", tmp_path / "." / "out"),
        "trace-is-input": ("convex", points, "--trace", points),
        "result-is-input": ("convex", points, "--trace", out,
                            "--result", points),
        "least-trace-is-input": ("least", reals, "--auditor", "oracle",
                                 "--trace", sub / ".." / "reals.jsonl"),
        "result-links-to-trace": ("convex", points, "--trace", out,
                                  "--result", link),
    }[case]
    proc = run_cli(*args)
    assert_input_error(proc, "must differ")
    assert proc.stdout == ""
    assert not out.exists()
    assert points.read_bytes() == QUAD.read_bytes()
    assert reals.read_bytes() == WORKED_REALS.read_bytes()


def test_a_trace_naming_the_script_is_an_input_error(tmp_path):
    # the trace would overwrite the challenges it is learned from
    script = tmp_path / "script.jsonl"
    script.write_bytes(WORKED_SCRIPT.read_bytes())
    proc = run_cli("least", WORKED_REALS, "--auditor", f"script:{script}",
                   "--trace", tmp_path / "." / "script.jsonl")
    assert_input_error(proc, "must differ")
    assert proc.stdout == ""
    assert script.read_bytes() == WORKED_SCRIPT.read_bytes()
    # a document that is also the script is read as a script, as before
    proc = run_cli("least", WORKED_REALS, "--auditor", f"script:{WORKED_REALS}")
    assert_input_error(proc, "challenge needs integer j and precision")


def test_check_never_reads_the_kmax_environment(tmp_path):
    # check's budget is --kmax or the result file's kmax, while least
    # and convex fall back on REALEARN_KMAX
    result = tmp_path / "quad.json"
    run_cli("convex", QUAD, "--result", result)
    for value in ("abc", "-1", str(KMAX_CEILING + 1), "0"):
        for flag in ([], ["--kmax", "64"]):
            proc = run_cli("check", result, QUAD, *flag,
                           env_extra={"REALEARN_KMAX": value})
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.startswith("ok: apex 3, rays 2 1")
    assert_input_error(run_cli("least", WORKED_REALS,
                               env_extra={"REALEARN_KMAX": "abc"}),
                       "REALEARN_KMAX must be an integer")


def assert_input_error(proc, *fragments):
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    for fragment in fragments:
        assert fragment in proc.stderr


def test_files_that_are_not_utf8_exit_1(tmp_path):
    binary = tmp_path / "bin.trace"
    binary.write_bytes(b"\xff\xfe\n")
    for args in (("tree", binary),
                 ("convex", binary),
                 ("least", binary),
                 ("least", WORKED_REALS, "--auditor", f"script:{binary}"),
                 ("check", binary, QUAD)):
        assert_input_error(run_cli(*args), str(binary))
    assert_input_error(run_cli("tree", binary), "not UTF-8 text")


def test_check_validates_the_result_kmax(tmp_path):
    result = tmp_path / "quad.json"
    run_cli("convex", QUAD, "--result", result)
    record = json.loads(result.read_text())
    for kmax, message in (("x", "kmax must be an integer, got 'x'"),
                          (True, "kmax must be an integer, got True"),
                          (-3, "kmax must be >= 0, got -3")):
        record["kmax"] = kmax
        result.write_text(json.dumps(record))
        assert_input_error(run_cli("check", result, QUAD), message)


def test_script_challenge_out_of_range_exits_1(tmp_path):
    script = tmp_path / "script.jsonl"
    for j in (99, 6, -1):
        script.write_text(json.dumps({"j": j, "precision": 3}) + "\n")
        proc = run_cli("least", WORKED_REALS, "--auditor", f"script:{script}")
        assert_input_error(proc, f"challenge j {j} is outside 0..5")


def test_max_restarts_must_not_be_negative():
    for args in (("convex", WEDGE), ("least", WORKED_REALS)):
        proc = run_cli(*args, "--max-restarts", "-1")
        assert_input_error(proc)
        assert proc.stderr == "input error: --max-restarts must be >= 0, got -1\n"


def test_run_flags_are_checked_in_one_order(tmp_path):
    # the input and output files first, then --kmax, then
    # --max-restarts: a run that gets all three wrong reports the first
    bad = ("--kmax", "-3", "--max-restarts", "-1")
    for command, fixture in (("convex", WEDGE), ("least", WORKED_REALS)):
        document = tmp_path / fixture.name
        document.write_bytes(fixture.read_bytes())
        proc = run_cli(command, document, *bad)
        assert proc.stderr == "input error: --kmax must be >= 0, got -3\n"
        proc = run_cli(command, document, *bad, "--trace", document)
        assert_input_error(proc, "must differ")
        assert document.read_bytes() == fixture.read_bytes()


def test_script_challenge_precision_must_not_be_negative(tmp_path):
    script = tmp_path / "script.jsonl"
    script.write_text(json.dumps({"j": 3, "precision": -1}) + "\n")
    proc = run_cli("least", WORKED_REALS, "--auditor", f"script:{script}")
    assert_input_error(proc, "challenge precision must be >= 0")


def test_badly_nested_table_exits_1(tmp_path):
    table = {"kind": "table", "prefix": [["0/1", "2/1"]], "tail": "1/1"}
    reals = tmp_path / "reals.jsonl"
    reals.write_text(json.dumps({"type": "real", **table}) + "\n")
    points = tmp_path / "points.jsonl"
    points.write_text("".join(
        json.dumps({"type": "point", "index": i, "x": x, "y": y}) + "\n"
        for i, (x, y) in enumerate([(table, "0/1"), ("1/1", "1/1"),
                                    ("-1/1", "1/1")])))
    for args in (("least", reals), ("convex", points)):
        assert_input_error(run_cli(*args),
                           "invalid interval table at index 0: width exceeds 2^-0")


def test_forced_challenge_that_does_not_verify_exits_4(tmp_path):
    script = tmp_path / "script.jsonl"
    # r_0 <= r_0 is reflexive; r_0 = 0 <= r_5 = 1 holds
    for j, message in ((0, "reflexive claim on index 0 reported false"),
                       (5, "op_at(r_5, r_0, 5) is false")):
        script.write_text(json.dumps({"j": j, "precision": 5, "force": True}) + "\n")
        proc = run_cli("least", WORKED_REALS, "--auditor", f"script:{script}")
        assert proc.returncode == 4
        assert proc.stderr == f"verification failed: forced challenge: {message}\n"


def test_faults_outside_input_checks_are_not_input_errors(monkeypatch):
    # an interval self-check or an unsound witness raised while computing
    # is a fault in the program: it must surface, not read as bad input
    import realearn.convex
    import realearn.least
    from realearn import InvalidNesting, UnsoundWitness, cli

    def computed_interval_fault(*args, **kwargs):
        raise InvalidNesting(7, "width exceeds 2^-7")

    def unsound_witness(*args, **kwargs):
        raise UnsoundWitness("op_at(r_1, r_0, 3) is false")

    monkeypatch.setattr(realearn.convex, "convex_angle",
                        computed_interval_fault)
    with pytest.raises(InvalidNesting):
        cli.main(["convex", str(WEDGE)])
    monkeypatch.setattr(realearn.least, "learn_least", unsound_witness)
    for auditor in ("none", "oracle", f"script:{WORKED_SCRIPT}"):
        with pytest.raises(UnsoundWitness):
            cli.main(["least", str(WORKED_REALS), "--auditor", auditor])


def test_exponent_notation_is_rejected_at_once(tmp_path, capsys):
    # "1e10000000" would otherwise become a 10^7-digit integer that the
    # oracle auditor then compares for many seconds.
    from realearn import cli

    doc = tmp_path / "reals.jsonl"
    doc.write_text('{"type": "real", "kind": "rational", "value": "1"}\n'
                   '{"type": "real", "kind": "rational", '
                   '"value": "1e10000000"}\n')
    start = time.perf_counter()
    code = cli.main(["least", str(doc), "--auditor", "oracle"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1
    assert elapsed < 0.5
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "'1e10000000'" in err


HUGE = "1" + "0" * 5000  # past Python's default limit of 4300 digits
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.fixture
def digit_limit():
    limit = sys.get_int_max_str_digits()
    if not 0 < limit < len(HUGE):
        pytest.skip(f"this interpreter converts {limit or 'any number of'} "
                    "digits")
    return limit


def json_entry_point(tmp_path, entry, literal):
    """The command that reads ``literal`` as a JSON value in ``entry``,
    the kind of file it appears in."""
    path = tmp_path / f"{entry}.jsonl"
    if entry == "document":
        path.write_text('{"type": "real", "kind": "rational", '
                        f'"value": {literal}}}\n')
        return ("least", path)
    if entry == "script":
        path.write_text(f'{{"j": 1, "precision": {literal}}}\n')
        return ("least", WORKED_REALS, "--auditor", f"script:{path}")
    if entry == "result":
        path.write_text(f'{{"type": "convex-result", "a": {literal}}}\n')
        return ("check", path, QUAD)
    path.write_text(f'{{"seq": {literal}, "phase": "decide"}}\n')
    return ("tree", path)


@pytest.mark.parametrize("entry", ["document", "script", "result", "trace"])
def test_an_integer_over_the_digit_limit_is_an_input_error(
        tmp_path, digit_limit, entry):
    proc = run_cli(*json_entry_point(tmp_path, entry, HUGE))
    assert_input_error(proc, f"{entry}.jsonl",
                       f"Exceeds the limit ({digit_limit}")
    assert len(proc.stderr) < 400


@pytest.mark.parametrize("entry", ["document", "script", "result", "trace"])
def test_json_nested_too_deeply_is_an_input_error(tmp_path, entry):
    assert_input_error(run_cli(*json_entry_point(tmp_path, entry, DEEP)),
                       f"{entry}.jsonl")


def test_a_rational_over_the_digit_limit_is_named_and_shortened(
        tmp_path, digit_limit):
    doc = tmp_path / "reals.jsonl"
    for value in (HUGE, f"-1/{HUGE}"):
        doc.write_text(json.dumps({"type": "real", "kind": "blurred",
                                   "value": value}) + "\n")
        proc = run_cli("least", doc)
        assert_input_error(
            proc, f"cannot parse rational '{value[:10]}",
            f" ({len(value)} characters): Exceeds the limit ({digit_limit}")
        assert len(proc.stderr) < 400
