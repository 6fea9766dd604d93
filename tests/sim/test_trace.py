"""TraceLog filtering and counters."""

from repro.sim import TraceLog


def _seeded_log():
    log = TraceLog()
    log.record(0.0, "net.send", node=1, dst=2)
    log.record(1.0, "net.deliver", node=2, src=1)
    log.record(2.0, "runtime.steer", node=2, reason="x")
    log.record(3.0, "net.send", node=2, dst=1)
    return log


def test_select_by_exact_category():
    assert len(_seeded_log().select("net.send")) == 2


def test_select_by_category_prefix():
    assert len(_seeded_log().select("net")) == 3


def test_prefix_does_not_match_partial_word():
    log = TraceLog()
    log.record(0.0, "network.thing")
    assert log.select("net") == []


def test_select_by_node():
    assert len(_seeded_log().select(node=2)) == 3


def test_select_since():
    assert len(_seeded_log().select(since=2.0)) == 2


def test_count_exact():
    assert _seeded_log().count("net.send") == 2


def test_disabled_log_records_nothing():
    log = TraceLog(enabled=False)
    log.record(0.0, "x")
    assert len(log) == 0


def test_clear_resets_everything():
    log = _seeded_log()
    log.clear()
    assert len(log) == 0
    assert log.count("net.send") == 0


def test_records_carry_data():
    log = _seeded_log()
    record = log.select("runtime.steer")[0]
    assert record.data["reason"] == "x"


def test_iteration_in_order():
    times = [r.time for r in _seeded_log()]
    assert times == sorted(times)


def test_select_since_uses_binary_search_boundaries():
    log = TraceLog()
    for i in range(100):
        log.record(i * 0.5, "tick", seq=i)
    hits = log.select(since=25.0)
    assert [r.data["seq"] for r in hits][:2] == [50, 51]
    assert len(hits) == 50
    assert log.select(since=1000.0) == []
