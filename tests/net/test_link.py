"""Link parameter validation and delay math."""

import pytest

from repro.net import LOOPBACK, Link, LinkError, Network, Topology
from repro.sim import Simulator


def test_transmission_time():
    link = Link(latency=0.01, bandwidth=8e6)
    assert link.transmission_time(1000) == pytest.approx(0.001)


def test_one_way_delay_sums_latency_and_tx():
    sim = Simulator(seed=1)
    net = Network(sim, Topology(2, default=Link(latency=0.05, bandwidth=8e6)))
    arrivals = []
    net.attach(0, lambda *a: None)
    net.attach(1, lambda src, dst, payload: arrivals.append(sim.now))
    net.send(0, 1, "m", size_bytes=1000)
    sim.run()
    assert arrivals == [pytest.approx(0.051)]


def test_negative_latency_rejected():
    with pytest.raises(LinkError):
        Link(latency=-0.1)


def test_zero_bandwidth_rejected():
    with pytest.raises(LinkError):
        Link(latency=0.1, bandwidth=0)


def test_loss_bounds():
    with pytest.raises(LinkError):
        Link(latency=0.1, loss=1.0)
    with pytest.raises(LinkError):
        Link(latency=0.1, loss=-0.1)
    Link(latency=0.1, loss=0.999)  # valid


def test_loopback_is_instant():
    assert LOOPBACK.latency + LOOPBACK.transmission_time(10_000_000) < 1e-3


def test_links_are_frozen():
    link = Link(latency=0.1)
    with pytest.raises(Exception):
        link.latency = 0.2
