"""RandTree protocol behaviour, baseline and exposed."""

import pytest

from repro.apps.randtree import (
    BaselineRandTree,
    ExposedRandTree,
    Join,
    RandTreeConfig,
    make_baseline_factory,
    make_exposed_factory,
    max_tree_depth,
    tree_depths,
)
from repro.apps.randtree.common import degree_bound
from repro.choice import RandomResolver
from repro.statemachine import Cluster


def run_join_phase(factory, n=7, seed=2, resolver_factory=None, until=12.0):
    cluster = Cluster(n, factory, seed=seed, resolver_factory=resolver_factory)
    cluster.start_all()
    cluster.run(until=until)
    return cluster


def states_of(cluster):
    return {s.node_id: s.checkpoint() for s in cluster.services}


@pytest.mark.parametrize("factory_maker,resolver", [
    (make_baseline_factory, None),
    (make_exposed_factory, lambda nid: RandomResolver(3)),
])
def test_all_nodes_join(factory_maker, resolver):
    cluster = run_join_phase(factory_maker(), resolver_factory=resolver)
    depths = tree_depths(states_of(cluster), root=0)
    assert len(depths) == 7


@pytest.mark.parametrize("factory_maker,resolver", [
    (make_baseline_factory, None),
    (make_exposed_factory, lambda nid: RandomResolver(3)),
])
def test_degree_bound_respected(factory_maker, resolver):
    config = RandTreeConfig(max_children=2)
    cluster = run_join_phase(factory_maker(config), resolver_factory=resolver)
    within_degree = degree_bound(config)
    for service in cluster.services:
        assert within_degree(service.node_id, service.live_state())


def test_root_is_joined_at_depth_one():
    cluster = run_join_phase(make_baseline_factory())
    root = cluster.service(0)
    assert root.joined and root.depth == 1 and root.parent is None


def test_parent_child_agreement():
    cluster = run_join_phase(make_exposed_factory(),
                             resolver_factory=lambda nid: RandomResolver(1))
    services = {s.node_id: s for s in cluster.services}
    for service in cluster.services:
        for child in service.children:
            assert services[child].parent == service.node_id


def test_siblings_and_grandparent_propagate():
    cluster = run_join_phase(make_exposed_factory(), n=7,
                             resolver_factory=lambda nid: RandomResolver(1))
    # Any node at depth >= 3 must know its grandparent.
    for service in cluster.services:
        if service.joined and service.depth >= 3:
            assert service.grandparent is not None


def test_dead_children_swept():
    cluster = run_join_phase(make_baseline_factory(), n=5)
    victim = cluster.service(0).children[0]
    cluster.node(victim).crash()
    cluster.run(until=cluster.sim.now + 8.0)
    assert victim not in cluster.service(0).children


def test_orphan_rejoins_after_parent_failure():
    config = RandTreeConfig()
    cluster = run_join_phase(make_baseline_factory(config), n=7)
    states = states_of(cluster)
    depths = tree_depths(states, root=0)
    # Fail an internal (non-root) parent.
    internal = next(
        s.node_id for s in cluster.services
        if s.node_id != 0 and s.children and depths.get(s.node_id) == 2
    )
    orphans = list(cluster.service(internal).children)
    cluster.node(internal).crash()
    cluster.run(until=cluster.sim.now + 15.0)
    depths = tree_depths(states_of(cluster), root=0)
    for orphan in orphans:
        assert orphan in depths  # re-attached somewhere


def test_exposed_forward_choice_traced():
    cluster = run_join_phase(make_exposed_factory(), n=9,
                             resolver_factory=lambda nid: RandomResolver(1))
    # With 9 nodes and fan-out 2 some joins must have been forwarded.
    records = cluster.sim.trace.select("choice.resolve")
    assert any(r.data["label"] == "join-forward" for r in records)


def test_baseline_duplicate_join_refreshes_not_duplicates():
    config = RandTreeConfig()
    cluster = Cluster(3, make_baseline_factory(config), seed=1)
    cluster.start_all()
    cluster.run(until=8.0)
    root = cluster.service(0)
    child = root.children[0]
    before = list(root.children)
    # Stale duplicate join from an existing child.
    cluster.network.send(child, 0, Join(joiner=child))
    cluster.run(until=cluster.sim.now + 1.0)
    assert root.children == before


def test_join_depth_reasonable_small_cluster():
    cluster = run_join_phase(make_baseline_factory(), n=7, until=15.0)
    depth = max_tree_depth(states_of(cluster), root=0)
    assert 3 <= depth <= 4  # optimal 3 for 7 nodes, fan-out 2
