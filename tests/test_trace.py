import json
from fractions import Fraction
from random import Random

import pytest

from realearn import (OracleAuditor, RealRegistry, TraceLog, convex_angle,
                      empty_state, extend, learn_least)
from realearn.errors import InputError, RestartBudgetExceeded
from realearn.trace import NullLog, TraceEvent, TraceFile, read_trace

from support import (count_trace_builds, general_position_points,
                     register_points)


def test_emit_assigns_sequence_numbers():
    log = TraceLog()
    log.emit("decide", pair=[0, 1], decision="assume")
    log.emit("candidate", candidate=0)
    assert [e.seq for e in log.events] == [0, 1]
    assert log.events[0].phase == "decide"


def test_event_json_roundtrip():
    event = TraceEvent(7, "extend", {"pair": [0, 3], "witness": 33})
    assert event == TraceEvent(seq=7, phase="extend",
                               payload={"pair": [0, 3], "witness": 33})
    assert event != TraceEvent(8, "extend", event.payload)
    assert repr(event) == ("TraceEvent(seq=7, phase='extend', "
                           "payload={'pair': [0, 3], 'witness': 33})")
    with pytest.raises(AttributeError):
        event.seq = 8
    # the payload is a dict, so events are unhashable
    with pytest.raises(TypeError):
        hash(event)
    blob = event.to_json()
    assert TraceEvent.from_json(blob) == event
    # serialization is canonical: sorted keys, no whitespace
    assert blob == json.dumps(json.loads(blob), sort_keys=True,
                              separators=(",", ":"))


def test_write_then_read_trace(tmp_path):
    log = TraceLog()
    log.emit("candidate", candidate=0, state=[])
    log.emit("accept", candidate=0, restarts=0, state=[])
    path = tmp_path / "run.trace"
    path.write_text("".join(log.lines()))
    assert list(read_trace(path)) == log.events
    # one JSON object per line, byte-stable across writes
    first = path.read_bytes()
    path.write_text("".join(log.lines()))
    assert path.read_bytes() == first
    assert len(first.splitlines()) == 2


def test_state_snapshot_is_sorted():
    reg = RealRegistry()
    for q in (0, -1, -2, -3):
        reg.blurred(q)
    state = extend(empty_state(reg), 0, 3, 2)
    state = extend(state, 0, 1, 1)
    snap = state.snapshot
    assert snap == [{"i": 0, "j": 1, "witness": 1},
                    {"i": 0, "j": 3, "witness": 2}]


@pytest.mark.parametrize("bad,message", [
    ("{not json", "invalid JSON"),
    ("[0, 1]", "trace event must be a JSON object"),
    ('{"phase": "candidate"}', "trace event has no 'seq'"),
    ('{"seq": 1}', "trace event has no 'phase'"),
])
def test_read_trace_names_file_and_line_of_a_bad_event(tmp_path, bad, message):
    path = tmp_path / "bad.trace"
    path.write_text('{"phase":"candidate","seq":0}\n\n' + bad + "\n")
    with pytest.raises(InputError) as exc:
        list(read_trace(path))
    assert str(exc.value).startswith(f"{path}:3: {message}")


def test_decide_text_writes_the_path_of_the_strict_steps():
    # the text block of a least-element pass: one decide event per step,
    # numbered on from seq, strict with its witness exactly at a strict
    # subject, assumed elsewhere, along the decision tree's path
    from realearn.least import _decide_text
    from realearn.replay import replay_paths

    rng = Random(11)
    cases = [(0, []), (6, []), (6, [(w, i) for i, w in enumerate(
        (4, 0, 9, 1, 2, 33), 1)]), (1, [(7, 1)])]
    for _ in range(200):
        n = rng.randint(0, 40)
        subjects = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        cases.append((n, [(rng.randint(0, 300), j) for j in subjects]))
    for n, strict in cases:
        seq = rng.randint(0, 10 ** 6)
        events = [TraceEvent.from_json(line)
                  for line in _decide_text(seq, n, strict).splitlines()]
        assert [(e.seq, e.phase) for e in events] == [
            (seq + i, "decide") for i in range(n)]
        witnesses = {j: w for w, j in strict}
        candidate = 0
        for i, event in enumerate(events, 1):
            payload = {"step": i, "pair": [candidate, i], "decision": "assume"}
            if i in witnesses:
                payload.update(decision="strict", witness=witnesses[i])
                candidate = i
            assert event.payload == payload
        leaf = strict[-1][1] if strict else 0
        run = events + [TraceEvent(seq + n, "candidate", {"candidate": leaf})]
        assert replay_paths([run], n).runs[0].leaf_candidates == [leaf]


def oracle_run(values, trace, max_restarts=None):
    reg = RealRegistry()
    for q in values:
        reg.blurred(q)
    return learn_least(len(values) - 1, OracleAuditor(reg, values),
                       empty_state(reg), max_restarts, trace)


ORACLE_VALUES = [Fraction(key, 2 ** 12)
                 for key in Random(3).sample(range(-2 ** 19, 2 ** 19), 30)]
CONVEX_POINTS = general_position_points(Random(4), 12)


def convex_run(trace):
    return convex_angle(register_points(CONVEX_POINTS, blurred=True)[1],
                        trace=trace)


def test_a_log_is_written_from_its_text_without_building_events(
        monkeypatch):
    runs = [TraceLog(), TraceLog()]
    oracle_run(ORACLE_VALUES, runs[0])
    convex_run(runs[1])
    phases, renders = count_trace_builds(monkeypatch)
    texts = ["".join(log.lines()) for log in runs]
    # no event is built, and each run's states, the least run's four and
    # the convex run's two, render their snapshot text once
    assert phases == [] and renders == [0, 1, 2, 3, 0, 1]
    for log, text in zip(runs, texts):
        assert text == "".join(event.to_json() + "\n" for event in log.events)


@pytest.mark.parametrize("run", [
    lambda trace: oracle_run(ORACLE_VALUES, trace),
    convex_run,
    # a run cut by its restart budget: both sinks hold the partial trace
    lambda trace: oracle_run(ORACLE_VALUES, trace, max_restarts=1),
], ids=["least-oracle", "convex", "least-budget"])
def test_a_trace_file_writes_the_text_of_a_trace_log(tmp_path, run):
    def recorded(trace):
        try:
            run(trace)
        except RestartBudgetExceeded:
            pass
    log = TraceLog()
    recorded(log)
    path = tmp_path / "run.trace"
    with open(path, "w", encoding="utf-8") as handle:
        recorded(TraceFile(handle))
    text = path.read_text(encoding="utf-8")
    assert text and text == "".join(log.lines())


def test_snapshot_text_is_the_snapshot_serialised():
    reg = RealRegistry()
    for q in range(6, 0, -1):
        reg.blurred(100 * q)
    state = empty_state(reg)
    assert state.snapshot_json == "[]"
    for i, j, k in ((0, 3, 2), (4, 5, 0), (0, 1, 1), (1, 2, 12)):
        state = extend(state, i, j, k)
        assert state.snapshot_json == json.dumps(
            state.snapshot, sort_keys=True, separators=(",", ":"))
    assert state.snapshot_json is state.snapshot_json


def test_a_null_log_keeps_nothing():
    log = NullLog()
    log.emit("candidate", candidate=0)
    log.defer(3, lambda seq: "")
    log.defer(1, lambda seq, x: "", 7)
    assert not hasattr(log, "events") and log.__slots__ == ()
