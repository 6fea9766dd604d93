"""Trace JSONL export."""

import json

from repro.sim import TraceLog
from repro.sim.trace import TraceRecord


def seeded_log():
    log = TraceLog()
    log.record(0.5, "net.send", node=1, dst=2, kind="Ping")
    log.record(1.0, "choice.resolve", node=2, label="x", value=(1, 2))
    log.record(2.0, "runtime.steer", node=2, reason="bad", peers={3, 1})
    return log


def test_dump_all_records(tmp_path):
    path = tmp_path / "trace.jsonl"
    count = seeded_log().dump_jsonl(str(path))
    assert count == 3
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["category"] == "net.send"
    assert rows[0]["dst"] == 2
    assert rows[1]["value"] == [1, 2]       # tuples become lists
    assert rows[2]["peers"] == [1, 3]       # sets become sorted lists


def test_dump_filtered_by_category(tmp_path):
    path = tmp_path / "net.jsonl"
    count = seeded_log().dump_jsonl(str(path), category="net")
    assert count == 1
    row = json.loads(path.read_text())
    assert row["category"] == "net.send"


def test_dump_preserves_colliding_data_fields(tmp_path):
    # Regression: data fields named like the envelope fields (time,
    # category, node) used to silently overwrite them — or be dropped,
    # depending on insertion order.  They must survive under a
    # ``data_`` prefix with the envelope untouched.
    log = TraceLog()
    log.append(TraceRecord(
        time=1.5, category="app.event", node=7,
        data={"time": 99.0, "category": "inner", "node_count": 3},
    ))
    path = tmp_path / "collide.jsonl"
    log.dump_jsonl(str(path))
    row = json.loads(path.read_text())
    assert row["time"] == 1.5
    assert row["category"] == "app.event"
    assert row["node"] == 7
    assert row["data_time"] == 99.0
    assert row["data_category"] == "inner"
    assert row["node_count"] == 3  # non-colliding fields keep their names


def test_dump_handles_odd_values(tmp_path):
    log = TraceLog()
    log.record(0.0, "x", obj=object())
    path = tmp_path / "odd.jsonl"
    log.dump_jsonl(str(path))
    row = json.loads(path.read_text())
    assert "object" in row["obj"]  # repr fallback


def test_dump_renders_message_dataclasses_as_typed_objects(tmp_path):
    # Regression: records carrying a Message used to serialize as its
    # repr string — unqueryable downstream.  They must round-trip
    # through json.loads as {"type": <msg_type>, **fields}.
    from dataclasses import dataclass

    from repro.statemachine import Message

    @dataclass
    class Ping(Message):
        seq: int
        path: tuple

    log = TraceLog()
    log.record(0.0, "app.sent", node=1, msg=Ping(seq=7, path=(1, 2)))
    path = tmp_path / "msg.jsonl"
    log.dump_jsonl(str(path))
    row = json.loads(path.read_text())
    assert row["msg"] == {"type": "Ping", "seq": 7, "path": [1, 2]}


def test_dump_message_field_name_collision_is_preserved(tmp_path):
    from dataclasses import dataclass

    from repro.statemachine import Message

    @dataclass
    class Odd(Message):
        type: str  # collides with the synthesized "type" key

    log = TraceLog()
    log.record(0.0, "app.sent", msg=Odd(type="inner"))
    path = tmp_path / "odd_msg.jsonl"
    log.dump_jsonl(str(path))
    row = json.loads(path.read_text())
    assert row["msg"]["type"] == "Odd"
    assert row["msg"]["field_type"] == "inner"


def test_dump_includes_causal_stamp(tmp_path):
    log = TraceLog()
    log.append(TraceRecord(
        time=0.25, category="net.send", node=1, data={"dst": 2},
        causal={"ev": 4, "trace": 1, "cause": 3, "lc": 2, "vc": {1: 2}},
    ))
    path = tmp_path / "stamped.jsonl"
    log.dump_jsonl(str(path))
    row = json.loads(path.read_text())
    assert row["causal"]["ev"] == 4
    assert row["causal"]["vc"] == {"1": 2}  # json keys become strings


def test_sets_of_mixed_types_render_in_a_fixed_order(tmp_path):
    # Regression: a set whose elements do not compare with each other
    # (None and an int) made trace_digest and dump_jsonl raise TypeError.
    # Such a set sorts by type name, then by rendered value.
    from repro.sim.trace import trace_digest

    log, other = TraceLog(), TraceLog()
    log.record(0.0, "x", node=1, peers={None, 1})
    other.record(0.0, "x", node=1, peers={1, None})
    assert trace_digest(log) == trace_digest(other)
    path = tmp_path / "mixed.jsonl"
    log.dump_jsonl(str(path))
    assert json.loads(path.read_text())["peers"] == [None, 1]
