"""What the transport caches per directed pair, and what it must not.

A pair's link parameters are read once and re-read when the topology
version moves; the FIFO and in-order watermarks belong to the transport
and carry over.  Liveness, partitions and fault interposers are read on
every send: installed after traffic has flowed on a pair, they act on
the very next send and stop acting when removed.
"""

import pytest

from repro.chaos.faults import FaultDecision
from repro.net import (
    Link,
    LinkDynamics,
    Network,
    Topology,
    full_mesh,
    schedule_latency_change,
)
from repro.sim import Simulator


def make_net(topology, seed=3):
    sim = Simulator(seed=seed)
    net = Network(sim, topology)
    arrivals = {i: [] for i in range(topology.n)}
    for i in range(topology.n):
        net.attach(i, lambda src, dst, payload, i=i: arrivals[i].append((payload, sim.now)))
    return sim, net, arrivals


def drop_reasons(sim):
    return [r.data["reason"] for r in sim.trace.select("net.drop")]


# ----------------------------------------------------------------------
# Link changes on a warm pair
# ----------------------------------------------------------------------


def test_set_symmetric_moves_next_arrival_and_keeps_fifo_watermark():
    sim, net, arrivals = make_net(Topology(2, default=Link(latency=0.05, bandwidth=1e5)))
    net.send(0, 1, "a", size_bytes=12_500)            # 1.0 s on the wire
    net.topology.set_symmetric(0, 1, Link(latency=0.5, bandwidth=1e5))
    net.send(0, 1, "b", size_bytes=12_500)
    sim.run()
    # "b" queues behind "a" (watermark kept: 1.0 + 1.0) and then pays
    # the NEW latency.  A stale link would give 2.05, a lost watermark 1.5.
    assert arrivals[1] == [("a", pytest.approx(1.05)), ("b", pytest.approx(2.5))]


def test_in_order_watermark_survives_a_link_change():
    sim, net, arrivals = make_net(Topology(2, default=Link(latency=1.0)))
    net.send(0, 1, "slow", size_bytes=0)
    net.topology.set_symmetric(0, 1, Link(latency=0.01))
    net.send(0, 1, "fast", size_bytes=0)               # reliable: may not overtake
    net.send(0, 1, "datagram", size_bytes=0, reliable=False)
    sim.run()
    assert arrivals[1] == [("datagram", 0.01), ("slow", 1.0), ("fast", 1.0)]


def test_scheduled_latency_change_moves_a_warm_pair():
    topo = full_mesh(3, latency=0.05)
    sim, net, arrivals = make_net(topo)
    schedule_latency_change(sim, topo, at=1.0, a=0, b=1, latency=0.4)
    net.send(0, 1, "before", size_bytes=0)
    net.send(0, 2, "other", size_bytes=0)
    sim.run(until=2.0)
    net.send(0, 1, "after", size_bytes=0)
    net.send(1, 0, "back", size_bytes=0)
    net.send(0, 2, "untouched", size_bytes=0)
    sim.run()
    assert arrivals[1] == [("before", 0.05), ("after", 2.4)]
    assert arrivals[0] == [("back", 2.4)]
    assert arrivals[2] == [("other", 0.05), ("untouched", 2.05)]


def test_link_dynamics_episode_start_and_end_reach_a_warm_pair():
    topo = full_mesh(2, latency=0.05)
    sim, net, arrivals = make_net(topo)
    dynamics = LinkDynamics(sim, topo, period=1.0, episode_duration=2.0,
                            latency_factor=10.0, episode_probability=1.0,
                            focus_node=0)
    dynamics.start()
    net.send(0, 1, "calm", size_bytes=0)
    sim.run(until=1.5)                                 # episode began at t=1
    assert dynamics.episodes_started == 1
    dynamics.stop()
    net.send(0, 1, "congested", size_bytes=0)
    sim.run(until=3.5)                                 # ... and ended at t=3
    assert dynamics.active == []
    net.send(0, 1, "calm again", size_bytes=0)
    sim.run()
    assert arrivals[1] == [("calm", 0.05), ("congested", 2.0), ("calm again", 3.55)]


def test_first_send_after_change_rereads_each_pair_once(monkeypatch):
    topo = full_mesh(3, latency=0.05)
    sim, net, _ = make_net(topo)
    calls = []
    real = Topology.link
    monkeypatch.setattr(Topology, "link",
                        lambda self, src, dst: calls.append((src, dst)) or real(self, src, dst))
    for _ in range(3):
        net.send(0, 1, "x")
        net.send(0, 2, "x")
    assert calls == [(0, 1), (0, 2)]
    topo.set_link(0, 1, Link(latency=0.2))
    for _ in range(3):
        net.send(0, 1, "y")
        net.send(0, 2, "y")
    assert calls == [(0, 1), (0, 2)] * 2


# ----------------------------------------------------------------------
# break_connection
# ----------------------------------------------------------------------


def test_break_connection_clears_the_in_order_clamp_both_ways():
    sim, net, arrivals = make_net(Topology(2, default=Link(latency=1.0)))
    net.send(0, 1, "lost", size_bytes=0)
    net.send(1, 0, "lost", size_bytes=0)
    net.topology.set_symmetric(0, 1, Link(latency=0.1))
    net.break_connection(0, 1)
    net.send(0, 1, "fresh", size_bytes=0)
    net.send(1, 0, "fresh", size_bytes=0)
    sim.run()
    # Not held back to t=1.0 behind the traffic the break discarded.
    assert arrivals[1] == [("fresh", 0.1)]
    assert arrivals[0] == [("fresh", 0.1)]
    assert drop_reasons(sim) == ["connection-broken"] * 2


# ----------------------------------------------------------------------
# Never cached: partition, interposers, liveness
# ----------------------------------------------------------------------


class _DropAll:
    def apply(self, src, dst, payload, now):
        return FaultDecision(drop=True, reason="test-drop")


def test_partition_installed_on_a_warm_pair_acts_on_the_next_send():
    sim, net, arrivals = make_net(full_mesh(3, latency=0.05))
    assert net.send(0, 1, "warm")
    net.set_partition([{0}, {1, 2}])
    assert not net.send(0, 1, "walled")
    net.clear_partition()
    assert net.send(0, 1, "healed")
    sim.run()
    assert [p for p, _ in arrivals[1]] == ["warm", "healed"]
    assert drop_reasons(sim) == ["partition"]


def test_interposer_installed_on_a_warm_pair_acts_on_the_next_send():
    sim, net, arrivals = make_net(full_mesh(2, latency=0.05))
    assert net.send(0, 1, "warm")
    chaos = _DropAll()
    net.add_fault_interposer(chaos)
    assert not net.send(0, 1, "eaten")
    net.remove_fault_interposer(chaos)
    assert net.send(0, 1, "clean")
    sim.run()
    assert [p for p, _ in arrivals[1]] == ["warm", "clean"]
    assert drop_reasons(sim) == ["test-drop"]


def test_liveness_flip_on_a_warm_pair_acts_on_the_next_send():
    sim, net, arrivals = make_net(full_mesh(2, latency=0.05))
    assert net.send(0, 1, "warm")
    sim.run()
    net.liveness.fail(0)
    assert not net.send(0, 1, "from the dead")
    net.liveness.recover(0)
    net.liveness.fail(1)
    assert net.send(0, 1, "to the dead")              # accepted, dropped on arrival
    sim.run()
    net.liveness.recover(1)
    assert net.send(0, 1, "alive")
    sim.run()
    assert [p for p, _ in arrivals[1]] == ["warm", "alive"]
    assert drop_reasons(sim) == ["source-down", "destination-down"]
