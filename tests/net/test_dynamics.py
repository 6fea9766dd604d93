"""Time-varying network conditions."""

import pytest

from repro.net import Link, LinkDynamics, Network, full_mesh
from repro.sim import LivenessRegistry, Simulator


def test_scheduled_latency_change_applies():
    sim = Simulator(seed=1)
    topo = full_mesh(3, latency=0.05)
    # Defaults are shared; install explicit links so changes are visible.
    for i in range(3):
        for j in range(3):
            if i != j:
                topo.set_link(i, j, topo.link(i, j))
    sim.schedule_at(1.0, lambda: topo.set_symmetric(0, 1, Link(latency=0.5)))
    sim.run(until=0.5)
    assert topo.latency(0, 1) == 0.05
    sim.run(until=2.0)
    assert topo.latency(0, 1) == 0.5
    assert topo.latency(1, 0) == 0.5
    assert topo.latency(0, 2) == 0.05  # other pairs untouched


def test_change_affects_future_deliveries():
    sim = Simulator(seed=1)
    topo = full_mesh(2, latency=0.05)
    net = Network(sim, topo, LivenessRegistry())
    times = []
    net.attach(0, lambda *a: None)
    net.attach(1, lambda src, dst, payload: times.append(sim.now))
    sim.schedule_at(1.0, lambda: topo.set_symmetric(0, 1, Link(latency=1.0)))
    net.send(0, 1, "before")
    sim.run(until=2.0)
    net.send(0, 1, "after")
    sim.run()
    assert times[0] < 0.2
    assert times[1] > 2.9  # sent at 2.0 with 1.0s latency


def test_congestion_episodes_start_and_end():
    sim = Simulator(seed=7)
    topo = full_mesh(4, latency=0.05)
    for i in range(4):
        for j in range(4):
            if i != j:
                topo.set_link(i, j, topo.link(i, j))
    dynamics = LinkDynamics(
        sim, topo, period=1.0, episode_duration=2.0,
        latency_factor=10.0, episode_probability=1.0,
    )
    dynamics.start()
    sim.run(until=1.5)
    assert dynamics.episodes_started >= 1
    assert len(dynamics.active) >= 1
    episode = dynamics.active[0]
    assert topo.latency(episode.a, episode.b) == pytest.approx(0.5)
    dynamics.stop()
    sim.run(until=20.0)
    # All episodes eventually end and restore the original link.
    assert dynamics.active == []
    for i in range(4):
        for j in range(4):
            if i != j:
                assert topo.latency(i, j) == pytest.approx(0.05)


def test_episodes_traced():
    sim = Simulator(seed=7)
    topo = full_mesh(3, latency=0.05)
    for i in range(3):
        for j in range(3):
            if i != j:
                topo.set_link(i, j, topo.link(i, j))
    dynamics = LinkDynamics(sim, topo, period=0.5, episode_duration=1.0,
                            episode_probability=1.0)
    dynamics.start()
    sim.run(until=3.0)
    assert sim.trace.count("net.congestion_start") >= 2
    assert sim.trace.count("net.congestion_end") >= 1


def test_network_model_tracks_dynamics():
    """The EWMA network model follows a latency step change."""
    from repro.model import NetworkModel

    sim = Simulator(seed=1)
    topo = full_mesh(2, latency=0.05)
    sim.schedule_at(5.0, lambda: topo.set_symmetric(0, 1, Link(latency=0.4)))
    model = NetworkModel()

    def observe():
        model.observe_latency(0, 1, topo.latency(0, 1))
        sim.schedule(0.5, observe)

    sim.schedule(0.5, observe)
    sim.run(until=4.9)
    assert model.latency(0, 1) == pytest.approx(0.05, abs=0.01)
    sim.run(until=20.0)
    assert model.latency(0, 1) == pytest.approx(0.4, abs=0.05)
