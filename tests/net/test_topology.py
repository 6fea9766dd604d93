"""Topology builders and lookup semantics."""

import random

import pytest

from repro.net import (
    Link,
    Topology,
    TopologyError,
    full_mesh,
    transit_stub,
)


def test_empty_topology_rejected():
    with pytest.raises(TopologyError):
        Topology(0)


def test_unknown_pair_without_default_raises():
    topo = Topology(3)
    with pytest.raises(TopologyError):
        topo.link(0, 1)


def test_out_of_range_node_rejected():
    topo = Topology(3)
    with pytest.raises(TopologyError):
        topo.link(0, 3)


def test_self_link_is_loopback():
    topo = Topology(3, default=Link(latency=0.5))
    assert topo.latency(1, 1) == 0.0


def test_set_symmetric_installs_both_directions():
    topo = Topology(3)
    topo.set_symmetric(0, 1, Link(latency=0.2))
    assert topo.latency(0, 1) == topo.latency(1, 0) == 0.2


def test_explicit_link_overrides_default():
    topo = Topology(3, default=Link(latency=0.5))
    topo.set_link(0, 1, Link(latency=0.1))
    assert topo.latency(0, 1) == 0.1
    assert topo.latency(1, 0) == 0.5


def test_full_mesh_uniform():
    topo = full_mesh(4, latency=0.03)
    for i in range(4):
        for j in range(4):
            expected = 0.0 if i == j else 0.03
            assert topo.latency(i, j) == expected


def test_transit_stub_deterministic_per_seed():
    a = transit_stub(8, random.Random(3))
    b = transit_stub(8, random.Random(3))
    for i in range(8):
        for j in range(8):
            assert a.latency(i, j) == b.latency(i, j)


def test_transit_stub_triangle_structure():
    # Same-transit pairs should generally be faster than cross-transit
    # pairs; check the extremes are ordered sensibly.
    topo = transit_stub(16, random.Random(4), n_transit=2,
                        transit_latency_range=(0.2, 0.3))
    latencies = sorted(
        topo.latency(i, j) for i in range(16) for j in range(i + 1, 16)
    )
    assert latencies[0] < 0.1          # some intra-transit pair is fast
    assert latencies[-1] > 0.2          # some cross-transit pair pays the core


def test_transit_stub_requires_transit_nodes():
    with pytest.raises(TopologyError):
        transit_stub(4, random.Random(0), n_transit=0)


# ----------------------------------------------------------------------
# Sparse / lazy topologies (the 1k-node rework)
# ----------------------------------------------------------------------


def test_node_ids_is_cached_range_view():
    topo = Topology(1000, default=Link(latency=0.01))
    ids = topo.node_ids
    assert ids is topo.node_ids            # cached, not rebuilt per call
    assert isinstance(ids, range)
    assert len(ids) == 1000
    assert list(ids[:3]) == [0, 1, 2]


def test_transit_stub_grouped_mode_scales_sparse():
    topo = transit_stub(rng=random.Random(7), n_stubs=32, stub_size=32)
    assert topo.n == 1024
    assert len(list(topo.pairs())) == 0
    # Same-stub pairs ride two access links; cross-stub pays the core.
    same = topo.latency(0, 1)
    cross = topo.latency(0, 1023)
    assert 0.0 < same < cross
    assert topo.latency(0, 1023) == topo.latency(1023, 0)
    # Both directions share one Link: the pair's seed derivation (a
    # SHA-256 and a Random) is paid once, whichever side asks first.
    assert topo.link(0, 1023) is topo.link(1023, 0)
    assert topo.link(1, 0) is topo.link(0, 1)


def test_transit_stub_grouped_mode_deterministic():
    a = transit_stub(rng=random.Random(8), n_stubs=8, stub_size=16)
    b = transit_stub(rng=random.Random(8), n_stubs=8, stub_size=16)
    for pair in [(0, 1), (5, 100), (127, 64)]:
        assert a.latency(*pair) == b.latency(*pair)


def test_transit_stub_grouped_mode_argument_validation():
    with pytest.raises(TopologyError):
        transit_stub(rng=random.Random(0), n_stubs=4)        # missing size
    with pytest.raises(TopologyError):
        transit_stub(rng=random.Random(0), stub_size=4)      # missing count
    with pytest.raises(TopologyError):
        transit_stub(rng=random.Random(0), n_stubs=0, stub_size=4)
    with pytest.raises(TopologyError):
        transit_stub(12, random.Random(0), n_stubs=4, stub_size=4)  # 16 != 12


def test_set_link_still_overrides_computed_topology():
    topo = Topology(100, link_fn=lambda i, j: Link(latency=0.02 * abs(i - j)))
    topo.set_link(3, 4, Link(latency=0.5))
    assert topo.latency(3, 4) == 0.5
    assert topo.latency(4, 3) == pytest.approx(0.02)   # computed fallback
