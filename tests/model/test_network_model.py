"""Predictive network model: observation and queries."""

import pytest

from repro.model import NetworkModel
from repro.model.network_model import DEFAULT_BANDWIDTH, DEFAULT_LATENCY
from repro.net import full_mesh


def test_defaults_when_unknown():
    model = NetworkModel()
    assert model.latency(0, 1) == DEFAULT_LATENCY
    assert model.bandwidth(0, 1) == DEFAULT_BANDWIDTH


def test_self_latency_zero():
    assert NetworkModel().latency(3, 3) == 0.0


def test_first_observation_taken_verbatim():
    model = NetworkModel()
    model.observe_latency(0, 1, 0.2)
    assert model.latency(0, 1) == 0.2


def test_ewma_moves_toward_new_samples():
    model = NetworkModel()
    model.observe_latency(0, 1, 0.1)
    model.observe_latency(0, 1, 0.3)
    assert 0.1 < model.latency(0, 1) < 0.3


def test_rtt_sums_both_directions():
    model = NetworkModel()
    model.observe_latency(0, 1, 0.1)
    model.observe_latency(1, 0, 0.3)
    assert model.rtt(0, 1) == pytest.approx(0.4)


def test_transfer_time_uses_bandwidth():
    model = NetworkModel()
    model.bootstrap_from_topology(full_mesh(2, latency=0.1, bandwidth=8e6))
    assert model.transfer_time(0, 1, 1000) == pytest.approx(0.101)


def test_latency_sample_alone_keeps_default_bandwidth():
    # Passive measurement observes latency only: the link's bandwidth
    # stays the default until a bandwidth sample arrives.
    model = NetworkModel()
    model.observe_latency(0, 1, 0.1)
    assert model.bandwidth(0, 1) == DEFAULT_BANDWIDTH
    assert model.transfer_time(0, 1, 1000) == pytest.approx(
        0.1 + 1000 * 8.0 / DEFAULT_BANDWIDTH)


def test_bootstrap_from_topology_matches_ground_truth():
    topo = full_mesh(3, latency=0.07, bandwidth=5e6)
    model = NetworkModel()
    model.bootstrap_from_topology(topo)
    assert model.latency(0, 2) == pytest.approx(0.07)
    assert model.bandwidth(1, 2) == pytest.approx(5e6)
