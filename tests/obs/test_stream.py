"""RunStream protocol: write/read round-trips, torn lines, following."""

import json
import threading
import time

import pytest

from repro.obs.stream import (
    RECORD_TYPES,
    STREAM_VERSION,
    RunStream,
    StreamError,
    as_stream,
    follow_stream,
    parse_record,
    read_stream,
    stream_series,
)


@pytest.fixture
def stream_path(tmp_path):
    return str(tmp_path / "run.jsonl")


class TestRunStream:
    def test_header_is_first_record(self, stream_path):
        with RunStream(stream_path, kind="demo", run_id="r1",
                       config={"n": 5}):
            pass
        records = read_stream(stream_path)
        assert records[0] == {
            "type": "header", "version": STREAM_VERSION, "kind": "demo",
            "run": "r1", "config": {"n": 5},
        }

    def test_sample_event_summary_round_trip(self, stream_path):
        stream = RunStream(stream_path, kind="demo", clock=lambda: 2.5)
        stream.write_sample({"ops": 10})
        stream.write_event("probe", ok=True)
        stream.write_summary(total=10)
        records = read_stream(stream_path)
        assert [r["type"] for r in records] == \
            ["header", "sample", "event", "summary"]
        assert records[1]["t"] == 2.5 and records[1]["v"] == {"ops": 10}
        assert records[2]["event"] == "probe"
        assert records[2]["data"] == {"ok": True}
        assert records[3]["data"] == {"total": 10}

    def test_explicit_t_overrides_clock(self, stream_path):
        stream = RunStream(stream_path, kind="demo", clock=lambda: 99.0)
        stream.write_sample({"x": 1}, t=3.0)
        stream.close()
        assert read_stream(stream_path)[1]["t"] == 3.0

    def test_host_seconds_monotonic(self, stream_path):
        stream = RunStream(stream_path, kind="demo")
        stream.write_sample({"x": 1}, t=0.0)
        stream.write_sample({"x": 2}, t=1.0)
        stream.close()
        records = read_stream(stream_path)
        assert 0.0 <= records[1]["host"] <= records[2]["host"]

    def test_summary_closes_stream(self, stream_path):
        stream = RunStream(stream_path, kind="demo")
        stream.write_summary(done=True)
        assert stream.closed
        with pytest.raises(StreamError):
            stream.write_sample({"x": 1}, t=0.0)

    def test_context_manager_closes(self, stream_path):
        with RunStream(stream_path, kind="demo") as stream:
            stream.write_sample({"x": 1}, t=0.0)
        assert stream.closed

    def test_records_are_flushed_immediately(self, stream_path):
        stream = RunStream(stream_path, kind="demo")
        stream.write_sample({"x": 1}, t=0.0)
        # A concurrent reader sees both records before any close.
        assert len(read_stream(stream_path)) == 2
        stream.close()


class TestAsStream:
    def test_none_passes_through(self):
        assert as_stream(None, kind="demo") is None

    def test_path_opens_stream(self, stream_path):
        stream = as_stream(stream_path, kind="demo")
        assert isinstance(stream, RunStream)
        assert stream.kind == "demo"
        stream.close()

    def test_existing_stream_passes_through(self, stream_path):
        original = RunStream(stream_path, kind="demo")
        assert as_stream(original, kind="other") is original
        original.close()


class TestReaders:
    def test_parse_rejects_non_json(self):
        with pytest.raises(StreamError):
            parse_record("not json")

    def test_parse_rejects_unknown_type(self):
        with pytest.raises(StreamError):
            parse_record(json.dumps({"type": "nope"}))

    def test_parse_accepts_every_record_type(self):
        for rtype in RECORD_TYPES:
            assert parse_record(json.dumps({"type": rtype}))["type"] == rtype

    def test_read_ignores_torn_trailing_line(self, stream_path):
        stream = RunStream(stream_path, kind="demo")
        stream.write_sample({"x": 1}, t=0.0)
        stream.close()
        with open(stream_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "sample", "t": 1.0, "v"')  # no newline
        records = read_stream(stream_path)
        assert [r["type"] for r in records] == ["header", "sample"]

    def test_stream_series_folds_samples(self, stream_path):
        stream = RunStream(stream_path, kind="demo")
        stream.write_sample({"a": 1, "b": 10}, t=0.0)
        stream.write_sample({"a": 2}, t=1.0)
        stream.close()
        series = stream_series(read_stream(stream_path))
        assert series == {"a": [(0.0, 1), (1.0, 2)], "b": [(0.0, 10)]}


class TestFollowStream:
    def test_follow_sees_live_appends_and_stops_at_summary(self, stream_path):
        stream = RunStream(stream_path, kind="demo")

        def writer():
            for i in range(3):
                time.sleep(0.05)
                stream.write_sample({"i": i}, t=float(i))
            stream.write_summary(done=True)

        thread = threading.Thread(target=writer)
        thread.start()
        records = list(follow_stream(stream_path, poll=0.01, timeout=5.0))
        thread.join()
        types = [r["type"] for r in records]
        assert types == ["header", "sample", "sample", "sample", "summary"]

    def test_follow_times_out_without_summary(self, stream_path):
        stream = RunStream(stream_path, kind="demo")
        stream.write_sample({"x": 1}, t=0.0)
        start = time.monotonic()
        records = list(follow_stream(stream_path, poll=0.01, timeout=0.2))
        assert time.monotonic() - start < 2.0
        assert [r["type"] for r in records] == ["header", "sample"]
        stream.close()

    def test_follow_rejects_a_poll_that_is_not_positive(self, stream_path):
        with pytest.raises(ValueError):
            next(follow_stream(stream_path, poll=0.0, timeout=1.0))

    def test_follow_waits_for_missing_file(self, tmp_path):
        path = str(tmp_path / "late.jsonl")

        def writer():
            time.sleep(0.1)
            stream = RunStream(path, kind="demo")
            stream.write_summary(done=True)

        thread = threading.Thread(target=writer)
        thread.start()
        records = list(follow_stream(path, poll=0.01, timeout=5.0))
        thread.join()
        assert [r["type"] for r in records] == ["header", "summary"]
