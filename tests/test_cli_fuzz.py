"""Malformed documents, scripts, traces and result files end in a
documented exit code (0-4), never a traceback.

Each example takes one valid file, changes one field of one record, or
deletes a field, drops a record or repeats one, and runs ``cli.main``
in-process on it.  The replacement values include malformed tables and
rationals, so the integer interval kernel sees them through the CLI.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realearn import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
WORKED_REALS = FIXTURES / "worked_example_reals.jsonl"
WORKED_SCRIPT = FIXTURES / "worked_example_challenges.jsonl"
WEDGE = FIXTURES / "wedge_points.jsonl"
QUAD = FIXTURES / "quad_points.jsonl"

# Reals with non-dyadic values and tables with odd denominators.
MIXED_REALS = [
    {"type": "real", "kind": "rational", "value": "1/3"},
    {"type": "real", "kind": "table",
     "prefix": [["-1/3", "2/3"], ["0/1", "1/3"], ["1/9", "1/3"]], "tail": "1/5"},
    {"type": "real", "kind": "blurred", "value": "-5/7"},
    {"type": "real", "kind": "table", "prefix": [], "tail": "7/3"},
]

# Field values written in place of a valid one.  Integers stay small: a
# result file's kmax is a search budget, and the search is meant to
# reach it.
VALUES = [
    None, True, False, -1, 0, 1, 2, 3, 7, 300, 1.5, "", "x", "1/3",
    "-7/9", "0/0", "1/-2", "2/1", "1e3", [], {}, ["0/1", "1/1"],
    [["0/1", "2/1"]], [["1/1", "0/1"]], [["0/1", "1/3"], ["1/9", "1/3"]],
    [["0/1", "1/3"], ["-1/9", "1/3"]], [["0/1", "1/1", "2/1"]], [0, 1],
    {"kind": "table", "prefix": [["0/1", "1/1"]], "tail": "2/1"},
    {"kind": "table", "prefix": [["1/5", "3/5"], ["1/3", "7/15"]],
     "tail": "2/5"},
    {"kind": "blurred", "value": "1/3"}, {"kind": "rational"},
    {"kind": "other", "value": "1"}, "assume", "strict", "decide",
    "candidate", "table", "real", "point", "convex-result",
]


def read_records(path):
    text = Path(path).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def write_records(path, records):
    Path(path).write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8")


@st.composite
def mutations(draw, records):
    """``records`` with one field set or deleted, or one record dropped
    or repeated."""
    records = copy.deepcopy(records)
    action = draw(st.sampled_from(["set", "set", "set", "delete", "drop",
                                   "repeat"]))
    i = draw(st.integers(min_value=0, max_value=len(records) - 1))
    if action == "drop":
        del records[i]
        return records
    if action == "repeat":
        records.insert(i, copy.deepcopy(records[i]))
        return records
    holder, key = records, i
    while isinstance(holder[key], (dict, list)) and holder[key] \
            and draw(st.booleans()):
        holder = holder[key]
        keys = sorted(holder) if isinstance(holder, dict) else range(len(holder))
        key = draw(st.sampled_from(list(keys)))
    if action == "delete":
        del holder[key]
    else:
        holder[key] = draw(st.sampled_from(VALUES))
    return records


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid inputs and the traces and result file the CLI writes for them."""
    root = tmp_path_factory.mktemp("base")
    mixed = root / "mixed.jsonl"
    write_records(mixed, MIXED_REALS)
    least_trace = root / "least.trace"
    convex_trace = root / "convex.trace"
    result = root / "result.json"
    statuses = [cli.main(["least", str(WORKED_REALS), "--auditor",
                          f"script:{WORKED_SCRIPT}", "--trace",
                          str(least_trace)]),
                cli.main(["convex", str(WEDGE), "--trace", str(convex_trace),
                          "--result", str(result)])]
    assert statuses == [0, 0]
    return {
        "reals": read_records(WORKED_REALS),
        "mixed": read_records(mixed),
        "script": read_records(WORKED_SCRIPT),
        "wedge": read_records(WEDGE),
        "quad": read_records(QUAD),
        "least_trace": read_records(least_trace),
        "convex_trace": read_records(convex_trace),
        "result": read_records(result),
    }


# (base file that is mutated, command line with {file} for the mutated
# file and {name} for an unchanged base file)
RUNS = [
    ("reals", ["least", "{file}", "--auditor", "oracle"]),
    ("mixed", ["least", "{file}", "--auditor", "oracle"]),
    ("mixed", ["least", "{file}"]),
    ("script", ["least", "{reals}", "--auditor", "script:{file}"]),
    ("wedge", ["convex", "{file}", "--trace", "{out}.trace",
               "--result", "{out}.json"]),
    ("quad", ["convex", "{file}", "--kmax", "64"]),
    ("result", ["check", "{file}", "{wedge}"]),
    ("wedge", ["check", "{result}", "{file}"]),
    ("least_trace", ["tree", "{file}"]),
    ("convex_trace", ["tree", "{file}", "{least_trace}"]),
]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_cli_survives_mutated_inputs(base, data):
    name, argv = data.draw(st.sampled_from(RUNS))
    records = data.draw(mutations(base[name]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": str(Path(tmp) / "out")}
        for key, value in base.items():
            paths[key] = str(Path(tmp) / key)
            write_records(paths[key], value)
        paths["file"] = str(Path(tmp) / "mutated")
        write_records(paths["file"], records)
        code = cli.main([arg.format(**paths) for arg in argv])
    assert code in range(5)
