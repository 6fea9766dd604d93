"""The world digest changed values, not what exploration sees.

Revisit detection keys on ``WorldState.digest()``: a digest that merged
two distinct worlds would explore fewer states, faster and wrong, and
one that split equal worlds would explore more.  Both runs here are
repeated with the sort-and-hash digest the additive one replaced
(``legacy_world_digest``) standing in for it.
"""

from repro.apps.randtree import (Join, RandTreeConfig, make_exposed_factory,
                                 randtree_properties)
from repro.choice.resolvers import RandomResolver
from repro.mc import ConsequencePredictor, Explorer, InFlightMessage, world_from_services
from repro.statemachine import Cluster

from .legacy_world_digest import legacy_digests


def _settled_tree(n):
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(n, factory, seed=1,
                      resolver_factory=lambda nid: RandomResolver(1))
    cluster.start_all()
    cluster.run(until=20.0)
    world = world_from_services(cluster.services, cluster.nodes, time=cluster.sim.now)
    return world, Explorer(factory, properties=randtree_properties(config))


def test_bfs_revisit_detection_pinned(monkeypatch):
    """perf's ``mc_bfs`` in small: a settled tree, one in-flight join."""
    world, explorer = _settled_tree(7)
    world.inflight.append(InFlightMessage(5, 0, Join(joiner=5)))

    def explored():
        result = explorer.bfs(world.clone(), max_depth=3)
        return result.states_explored, result.transitions, result.truncated

    assert explored() == (298, 844, False)
    with legacy_digests(monkeypatch):
        assert explored() == (298, 844, False)


def test_s1_report_keeps_its_seed_digest_under_the_legacy_world_digest(monkeypatch):
    """benchmarks/bench_s1_scale.py pins this report's digest; the pin
    moved only because world digests are part of the dump."""
    world, explorer = _settled_tree(16)
    report = ConsequencePredictor(explorer, chain_depth=3, budget=5_000).predict(world)
    with legacy_digests(monkeypatch):
        assert report.digest() == "3ba33229c4e12a08"
