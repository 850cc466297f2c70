import json
from fractions import Fraction
from random import Random

import pytest

from realearn import (Challenge, OracleAuditor, RealRegistry, ScriptedAuditor,
                      TraceLog, convex_angle, empty_state, extend, learn_least)
from realearn.errors import (ForcedChallengeDenied, InputError,
                             RestartBudgetExceeded)
from realearn.trace import (NullLog, TraceEvent, TraceFile, _dumps,
                            _event_line, _state_line, read_trace)

from support import (StringTrace, count_trace_builds,
                     general_position_points, register_points)


def three_decisions(seq, first):
    return "".join(_event_line(seq + i, "decide", ("step",), first + i)
                   for i in range(3))


def record_blocks(log):
    """Blocks of 1, 0, 3, 1 (a string holding a newline), 0 and 1
    lines."""
    log.defer(_event_line, "candidate", ("candidate",), 0)
    log.defer(lambda seq: "")
    log.defer(three_decisions, 1)
    log.defer(_event_line, "note", ("text",), "two\nlines")
    log.defer(lambda seq, x: "", 7)
    log.defer(_event_line, "accept", ("candidate",), 0)


def test_each_sink_numbers_a_block_by_its_lines():
    # a sink moves seq on by the lines a block writes; a newline inside
    # a string is escaped, so that value stays on one line
    log, file = TraceLog(), StringTrace()
    record_blocks(log)
    record_blocks(file)
    for events in (log.events, file.events):
        assert [(e.seq, e.phase) for e in events] == [
            (0, "candidate"), (1, "decide"), (2, "decide"), (3, "decide"),
            (4, "note"), (5, "accept")]
        assert [e.payload.get("step") for e in events[1:4]] == [1, 2, 3]
        assert events[4].payload == {"text": "two\nlines"}
    assert file.text == "".join(log.lines())
    assert file.text.count("\n") == 6


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
    parsed = TraceEvent.from_json(blob)
    assert parsed == event
    # serialization is canonical: sorted keys, no whitespace
    assert blob == json.dumps(json.loads(blob), sort_keys=True,
                              separators=(",", ":"))


def test_write_then_read_trace(tmp_path):
    log = TraceLog()
    log.defer(_event_line, "candidate", ("candidate", "state"), 0, [])
    log.defer(_event_line, "accept", ("candidate", "restarts", "state"),
              0, 0, [])
    path = tmp_path / "run.trace"
    path.write_text("".join(log.lines()))
    read = list(read_trace(path))
    assert read == log.events
    # one JSON object per line, byte-stable across writes
    first = path.read_bytes()
    path.write_text("".join(log.lines()))
    assert path.read_bytes() == first
    assert len(first.splitlines()) == 2


def snapshot_states():
    """An empty knowledge state and one that learned (0, 3) then (0, 1)."""
    reg = RealRegistry()
    for q in (0, -1, -2, -3):
        reg.blurred(q)
    empty = empty_state(reg)
    return {"empty": empty,
            "two entries": extend(extend(empty, 0, 3, 2), 0, 1, 1)}


def test_state_snapshot_is_sorted():
    snap = snapshot_states()["two entries"].snapshot
    assert snap == [{"i": 0, "j": 1, "witness": 1},
                    {"i": 0, "j": 3, "witness": 2}]


@pytest.mark.parametrize("state_name", ["empty", "two entries"])
@pytest.mark.parametrize("phase, keys, values", [
    # keys that sort before "state" only
    ("candidate", ("candidate",), (4,)),
    ("accept", ("a", "b", "c", "restarts"), (3, 2, 1, 1)),
    # keys on both sides of it
    ("extend", ("pair", "witness"), ((0, 3), 2)),
    # a string holding "state":null and a quote, before and after it
    ("note", ("note", "text"), ('"state":null', 'say "state":null')),
])
def test_a_state_line_is_the_record_with_the_snapshot(state_name, phase,
                                                      keys, values):
    state = snapshot_states()[state_name]
    line = _state_line(7, phase, state, keys, *values)
    record = dict(zip(keys, values), seq=7, phase=phase,
                  state=json.loads(state.snapshot_json))
    assert line == _dumps(record) + "\n"
    assert line.count("\n") == 1


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
        # the list may hold steps past the pass's length, never written
        listed = strict + [(5, n + 1 + i) for i in range(rng.randint(0, 2))]
        text = _decide_text(seq, n, listed, len(strict))
        events = [TraceEvent.from_json(line) for line in text.splitlines()]
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
        # a trace numbers its events from 0
        leaf = strict[-1][1] if strict else 0
        run = [TraceEvent.from_json(line) for line in
               _decide_text(0, n, strict, len(strict)).splitlines()]
        run.append(TraceEvent(n, "candidate", {"candidate": leaf}))
        replayed = replay_paths([run], n)
        assert replayed.runs[0].leaf_candidates == [leaf]


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


WORKED_VALUES = (0, Fraction(-5, 2), -1, -2, -3, 1)


def scripted_run(script, trace):
    reg = RealRegistry()
    for q in WORKED_VALUES:
        reg.blurred(q)
    return learn_least(5, ScriptedAuditor(script), empty_state(reg), 32,
                       trace)


@pytest.mark.parametrize("run,last,checks", [
    (lambda trace: oracle_run(ORACLE_VALUES, trace), "accept", 0),
    (convex_run, "accept", 0),
    # a run cut by its restart budget: both sinks hold the partial trace
    (lambda trace: oracle_run(ORACLE_VALUES, trace, max_restarts=1),
     "extend", 0),
    # a challenge that checks out (r_0 = 0 <= r_5 = 1), one refuted, and
    # after the restart one that checks out (r_3 = -2 <= r_2 = -1)
    (lambda trace: scripted_run([Challenge(5, 3), Challenge(3, 33),
                                 Challenge(2, 25)], trace), "accept", 2),
    # a forced challenge the reals deny: the trace ends on that challenge
    (lambda trace: scripted_run([Challenge(3, 33),
                                 Challenge(5, 5, force=True)], trace),
     "challenge", 0),
], ids=["least-oracle", "convex", "least-budget", "least-check",
        "least-denied"])
def test_a_trace_file_writes_the_text_of_a_trace_log(tmp_path, run, last,
                                                     checks):
    def recorded(trace):
        try:
            run(trace)
        except (RestartBudgetExceeded, ForcedChallengeDenied):
            pass
    log = TraceLog()
    recorded(log)
    path = tmp_path / "run.trace"
    with open(path, "w", encoding="utf-8") as handle:
        recorded(TraceFile(handle))
    text = path.read_text(encoding="utf-8")
    assert text and text == "".join(log.lines())
    assert json.loads(text.splitlines()[-1])["phase"] == last
    if last == "challenge":
        assert text.splitlines()[-1] == ('{"claim":[3,5],"forced":true,"j":5,'
                                         '"phase":"challenge","precision":5,'
                                         '"seq":17}')
    assert text.count('"outcome":"ok"') == checks


def test_an_oracle_restart_records_seven_blocks():
    # per restart: the pass's decide lines, candidate, challenge,
    # falsified, blame, extend and restart; then the accepting
    # attempt's decide lines, candidate and accept
    log = TraceLog()
    outcome = oracle_run(ORACLE_VALUES, log)
    assert outcome.restarts > 0
    assert len(log._blocks) == 7 * outcome.restarts + 3


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
    record_blocks(log)
    assert not hasattr(log, "events") and log.__slots__ == ()
