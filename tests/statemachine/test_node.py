"""Node host: timers, interposers, crash/restart, dispatch capture."""

from dataclasses import dataclass

from repro.statemachine import (
    Cluster,
    InboundInterposer,
    Message,
    Service,
    msg_handler,
    timer_handler,
)
from repro.statemachine.events import DeliverAction

from ..conftest import EchoService, Ping, TickService


def test_echo_roundtrips(echo_cluster):
    echo_cluster.start_all()
    echo_cluster.run(until=10)
    total = sum(s.received for s in echo_cluster.services)
    assert total == 6  # max_hops pings delivered in total


def test_timer_rearm_supersedes(tick_cluster):
    tick_cluster.start_all()
    tick_cluster.run(until=5.5)
    assert all(s.ticks == 5 for s in tick_cluster.services)


def test_cancel_timer_stops_firing():
    cluster = Cluster(1, lambda nid: TickService(nid), seed=1)
    cluster.start_all()
    cluster.run(until=2.5)
    cluster.node(0).cancel_timer("tick")
    cluster.run(until=10)
    assert cluster.service(0).ticks == 2


def test_set_timer_replaces_pending():
    cluster = Cluster(1, lambda nid: TickService(nid, period=5.0), seed=1)
    cluster.start_all()
    # Re-arm at 1s with a shorter deadline; old 5s deadline must not fire.
    cluster.run(until=1.0)
    cluster.node(0).set_timer("tick", 0.5)
    cluster.run(until=2.0)
    assert cluster.service(0).ticks == 1
    assert cluster.node(0).pending_timers()[0][0] == "tick"


def test_crash_silences_timers_and_delivery():
    cluster = Cluster(2, lambda nid: TickService(nid), seed=1)
    cluster.start_all()
    cluster.run(until=2.5)
    cluster.node(0).crash()
    cluster.run(until=10)
    assert cluster.service(0).ticks == 2
    assert cluster.service(1).ticks == 10


def test_restart_resets_state_and_reinits():
    cluster = Cluster(1, lambda nid: TickService(nid), seed=1)
    cluster.start_all()
    cluster.run(until=3.5)
    cluster.node(0).crash()
    cluster.run(until=5.0)
    cluster.node(0).restart(fresh_state=True)
    cluster.run(until=7.0)
    # Fresh state: counter restarted from zero at t=5.
    assert cluster.service(0).ticks == 2


def test_restart_can_keep_state():
    cluster = Cluster(1, lambda nid: TickService(nid), seed=1)
    cluster.start_all()
    cluster.run(until=3.5)
    cluster.node(0).crash()
    cluster.node(0).restart(fresh_state=False)
    cluster.run(until=5.5)
    assert cluster.service(0).ticks == 5


class DropAll(InboundInterposer):
    def on_inbound(self, node, src, msg):
        return False


def test_inbound_interposer_filters():
    cluster = Cluster(2, lambda nid: EchoService(nid), seed=1)
    cluster.node(1).inbound_interposers.append(DropAll())
    cluster.start_all()
    cluster.run(until=5)
    assert cluster.service(1).received == 0
    assert cluster.sim.trace.count("node.filtered_in") == 1


def test_dispatch_capture_records_checkpoint():
    cluster = Cluster(2, lambda nid: EchoService(nid), seed=1)
    captured = []

    class Spy(InboundInterposer):
        def on_inbound(self, node, src, msg):
            # current_dispatch is set *after* interposers run; sample at
            # next delivery instead via the service handler below.
            return True

    node = cluster.node(1)
    node.capture_dispatch = True
    original = node.service.on_ping.__func__ if hasattr(node.service.on_ping, "__func__") else None

    # Wrap deliver to observe current_dispatch mid-flight.
    seen = {}
    service = node.service
    original_deliver = service.deliver

    def spying_deliver(src, msg):
        seen.setdefault("dispatch", node.current_dispatch)
        return original_deliver(src, msg)

    service.deliver = spying_deliver
    cluster.start_all()
    cluster.run(until=2)
    dispatch = seen["dispatch"]
    event = dispatch.event
    assert isinstance(event, DeliverAction) and isinstance(event.msg, Ping)
    assert (event.src, event.dst, event.handler) == (0, 1, None)
    assert dispatch.checkpoint["received"] == 0
    assert node.current_dispatch is None  # cleared after dispatch


def test_cluster_rejects_small_topology():
    import pytest
    from repro.net import full_mesh

    with pytest.raises(ValueError):
        Cluster(5, lambda nid: TickService(nid), topology=full_mesh(3))
