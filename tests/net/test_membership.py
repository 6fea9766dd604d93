"""Partial-view membership: bounds, convergence, and churn repair."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import PartialViewMembership, ViewConfig
from repro.statemachine import Cluster


def _overlay_connected(services):
    """True when the union of active views is one connected component."""
    adj = {s.node_id: set(s.active) for s in services}
    for nid, peers in list(adj.items()):
        for p in peers:
            adj.setdefault(p, set()).add(nid)
    start = next(iter(adj))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = frontier.pop()
        for p in adj[nxt]:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return len(seen) == len(adj)


def _cluster(n, seed=3, **view_kwargs):
    config = ViewConfig(**view_kwargs)
    cluster = Cluster(n, lambda node_id: PartialViewMembership(node_id, config), seed=seed)
    cluster.start_all()
    return cluster


def test_views_stay_within_bounds():
    cluster = _cluster(48, active_size=4, passive_size=12)
    cluster.run(until=8.0)
    for svc in cluster.services:
        assert len(svc.active) <= 4
        assert len(svc.passive) <= 12
        assert svc.node_id not in svc.active
        assert svc.node_id not in svc.passive
        assert not set(svc.active) & set(svc.passive)


def test_overlay_converges_connected():
    cluster = _cluster(64)
    cluster.run(until=8.0)
    services = cluster.services
    assert _overlay_connected(services)
    # Every node has found neighbors — no isolated joiner left behind.
    assert all(svc.active for svc in services)


def test_neighbors_mirrors_active_view():
    cluster = _cluster(16)
    cluster.run(until=5.0)
    for svc in cluster.services:
        assert svc.neighbors() == list(svc.active)


def test_views_are_checkpointable_state():
    cluster = _cluster(16)
    cluster.run(until=5.0)
    snap = cluster.service(3).checkpoint()
    for fld in ("active", "passive", "probe_missed"):
        assert fld in snap


def test_probe_detects_silent_failure():
    """A failed node stops answering probes and is dropped from every
    active view; survivors refill from their passive views."""
    cluster = _cluster(32, probe_period=0.25, probe_miss_limit=3)
    cluster.run(until=6.0)
    victim = 7
    cluster.network.liveness.fail(victim)
    cluster.run(until=16.0)
    survivors = [s for s in cluster.services if s.node_id != victim]
    assert all(victim not in s.active for s in survivors)
    assert _overlay_connected(survivors)
    assert all(s.active for s in survivors)


def test_repair_after_mass_failure():
    cluster = _cluster(48, probe_period=0.25)
    cluster.run(until=6.0)
    for victim in (3, 11, 19, 27, 35):
        cluster.network.liveness.fail(victim)
    cluster.run(until=20.0)
    dead = {3, 11, 19, 27, 35}
    survivors = [s for s in cluster.services if s.node_id not in dead]
    for svc in survivors:
        assert not set(svc.active) & dead
    assert _overlay_connected(survivors)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    victims=st.sets(st.integers(min_value=1, max_value=31), min_size=0, max_size=6),
)
def test_connectivity_property_under_churn(seed, victims):
    """Union of active views stays connected for arbitrary seeds and
    failure sets (node 0, the bootstrap contact, stays up)."""
    cluster = _cluster(32, seed=seed, probe_period=0.25)
    cluster.run(until=6.0)
    for victim in victims:
        cluster.network.liveness.fail(victim)
    cluster.run(until=18.0)
    survivors = [s for s in cluster.services if s.node_id not in victims]
    for svc in survivors:
        assert not set(svc.active) & victims
    assert _overlay_connected(survivors)


def test_membership_uses_named_stream_only():
    """Two same-seed runs produce identical view state — determinism of
    the "membership" stream end to end."""
    a = _cluster(24, seed=11)
    a.run(until=6.0)
    b = _cluster(24, seed=11)
    b.run(until=6.0)
    for sa, sb in zip(a.services, b.services):
        assert sa.active == sb.active
        assert sa.passive == sb.passive
