"""The row log against the record log it replaced.

``TraceLog`` keeps one flat tuple per event and builds records only when
read.  Every read and every rendering must match the old log, kept in
``legacy_trace.py``, on arbitrary record sequences; a copy made through
``append`` must match too; and a row must stay a fraction of the size
of the record object it replaced.
"""

import os
import tempfile
import tracemalloc
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.sim import TraceLog
from repro.sim.trace import TraceRecord, trace_digest
from repro.statemachine import Message

from . import legacy_trace


@dataclass
class Ping(Message):
    seq: int
    path: tuple


class Odd:
    def __repr__(self):
        return "<odd>"


ODD = object()
CATEGORIES = ["net.send", "net.deliver", "net", "network.flap", "node.timer",
              "runtime.steer.explain", "x"]
# Keyword names record() accepts, two of them envelope fields of a dump.
RECORD_KEYS = ["dst", "src", "kind", "value", "peers", "causal", "data_causal"]
# append() takes any data dict, including the names record() reserves.
APPEND_KEYS = RECORD_KEYS + ["time", "category", "node", "data_time", "data_node"]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 300),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
)
values = st.one_of(
    scalars,
    st.tuples(st.integers(0, 9), st.text(max_size=2)),
    st.lists(st.integers(0, 9), max_size=3),
    st.frozensets(st.integers(0, 20), max_size=4),
    st.sets(st.text(max_size=2), max_size=3),
    st.dictionaries(st.one_of(st.integers(0, 9), st.text(max_size=2)),
                    st.integers(0, 9), max_size=3),
    st.builds(Ping, seq=st.integers(0, 9), path=st.tuples(st.integers(0, 3))),
    st.sampled_from([ODD, Odd()]),
)
stamps = st.one_of(
    st.none(),
    st.fixed_dictionaries({"ev": st.integers(1, 50), "trace": st.integers(1, 5),
                           "cause": st.one_of(st.none(), st.integers(1, 50))}),
    st.just("scope"),  # no staged stamp: the record links to the executing event
)
times = st.one_of(st.integers(0, 40), st.floats(0.0, 40.0))
nodes = st.one_of(st.none(), st.integers(0, 4))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("record"), times, st.sampled_from(CATEGORIES), nodes,
                  st.dictionaries(st.sampled_from(RECORD_KEYS), values, max_size=4), stamps),
        st.tuples(st.just("append"), times, st.sampled_from(CATEGORIES), nodes,
                  st.dictionaries(st.sampled_from(APPEND_KEYS), values, max_size=4),
                  st.one_of(st.none(), stamps.filter(lambda s: isinstance(s, dict)))),
    ),
    max_size=25,
)


class StubTracer:
    """The three fields a causal tracer exposes to ``TraceLog.record``."""

    def __init__(self):
        self._pending = None
        self._current = []
        self._events = [(3, None), (4, 1)]


def replay(log, script, causal):
    """Feed ``script`` to ``log``: the new log appends, the old one gets
    the same record pushed onto its list."""
    log.tracer = StubTracer() if causal else None
    for mode, time, category, node, data, stamp in script:
        if mode == "append":
            record = TraceRecord(time, category, node, dict(data), stamp)
            if isinstance(log, TraceLog):
                log.append(record)
            else:
                log._records.append(record)
                log._counts[category] += 1
            continue
        if log.tracer is not None:
            log.tracer._current = [2] if stamp == "scope" else []
            log.tracer._pending = dict(stamp) if isinstance(stamp, dict) else None
        log.record(time, category, node, **data)


def dumped(log, category=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        written = log.dump_jsonl(path, category=category)
        with open(path, "rb") as handle:
            return written, handle.read()


def assert_same(log, oracle):
    assert list(log) == list(oracle)
    assert len(log) == len(oracle)
    times = sorted({r.time for r in oracle})
    for category in CATEGORIES + ["net.", "node", "runtime", "runtime.steer", None]:
        for node in (None, 0, 3):
            for since in [0.0] + times[:: max(1, len(times) // 3)] + [20.5]:
                assert log.select(category, node, since) == oracle.select(category, node, since)
        if category is not None:
            assert log.count(category) == oracle.count(category)
        assert dumped(log, category) == dumped(oracle, category)
    assert list(log.category_counts().items()) == list(oracle.category_counts().items())
    assert trace_digest(log) == legacy_trace.trace_digest(oracle)


@settings(max_examples=150, deadline=None)
@given(script=steps, causal=st.booleans())
def test_row_log_matches_record_log(script, causal):
    script = sorted(script, key=lambda step: step[1])  # the clock never runs back
    log, oracle = TraceLog(), legacy_trace.TraceLog()
    replay(log, script, causal)
    replay(oracle, script, causal)
    assert_same(log, oracle)
    copy = TraceLog()
    for record in log:
        copy.append(record)
    assert_same(copy, oracle)


def test_clear_drops_rows_and_stamps():
    log = TraceLog()
    log.append(TraceRecord(0.0, "net.send", 1, {"dst": 2}, {"ev": 1, "trace": 1}))
    log.clear()
    log.record(0.5, "net.deliver", node=2, src=1)
    assert list(log) == [TraceRecord(0.5, "net.deliver", 2, {"src": 1}, None)]
    assert log.category_counts() == {"net.deliver": 1}


def test_rows_stay_small():
    # 20,000 sends and 20,000 deliveries shaped like the transport's own
    # records.  A frozen record plus its kwargs dict retained ~330 B
    # each; a row retains about 120 B.
    log = TraceLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            at = i * 0.001
            log.record(at, "net.send", node=i % 20, dst=(i + 1) % 20, size=64, kind="Ping")
            log.record(at + 0.0005, "net.deliver", node=(i + 1) % 20, src=i % 20)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == 40_000
    assert retained / len(log) <= 160, retained / len(log)
