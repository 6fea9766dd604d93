"""LivenessRegistry transitions and observers."""

from repro.sim import LivenessRegistry


def test_nodes_up_by_default():
    assert LivenessRegistry().is_up(5)


def test_fail_and_recover():
    reg = LivenessRegistry()
    reg.fail(3)
    assert not reg.is_up(3)
    reg.recover(3)
    assert reg.is_up(3)


def test_down_nodes_snapshot():
    reg = LivenessRegistry()
    reg.fail(1)
    reg.fail(2)
    snapshot = reg.down_nodes
    snapshot.add(99)
    assert reg.down_nodes == {1, 2}


def test_fail_idempotent_no_duplicate_notify():
    reg = LivenessRegistry()
    events = []
    reg.subscribe(lambda node, up: events.append((node, up)))
    reg.fail(1)
    reg.fail(1)
    assert events == [(1, False)]


def test_recover_of_up_node_is_silent():
    reg = LivenessRegistry()
    events = []
    reg.subscribe(lambda node, up: events.append((node, up)))
    reg.recover(1)
    assert events == []


def test_observer_sees_both_transitions():
    reg = LivenessRegistry()
    events = []
    reg.subscribe(lambda node, up: events.append((node, up)))
    reg.fail(2)
    reg.recover(2)
    assert events == [(2, False), (2, True)]


def test_fail_many_and_recover_many_ordered():
    reg = LivenessRegistry()
    events = []
    reg.subscribe(lambda node, up: events.append(node))
    for node in (3, 1, 2):
        reg.fail(node)
    assert events == [3, 1, 2]
    for node in (1, 3):
        reg.recover(node)
    assert reg.down_nodes == {2}


def test_raising_observer_does_not_starve_later_observers():
    reg = LivenessRegistry()
    events = []

    def broken(node, up):
        raise RuntimeError("buggy failure detector")

    reg.subscribe(broken)
    reg.subscribe(lambda node, up: events.append((node, up)))
    reg.fail(3)
    reg.recover(3)
    assert events == [(3, False), (3, True)]
    assert reg.notify_errors == 2


def test_observer_errors_traced_with_clock():
    from repro.sim import TraceLog

    reg = LivenessRegistry(trace=TraceLog())
    reg.clock = lambda: 7.5

    def broken(node, up):
        raise ValueError("boom")

    reg.subscribe(broken)
    reg.fail(1)
    [record] = reg.trace.select("liveness.observer_error")
    assert record.time == 7.5
    assert "ValueError: boom" in record.data["error"]


def test_crash_counts_distinguish_reincarnations():
    reg = LivenessRegistry()
    reg.fail(4)
    reg.recover(4)
    reg.fail(4)
    reg.fail(4)  # idempotent: already down
    assert reg.crash_counts[4] == 2
    assert reg.crash_counts[9] == 0
