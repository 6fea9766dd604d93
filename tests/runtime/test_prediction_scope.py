"""Neighborhood-scoped prediction: worlds built from view slices."""

import pytest

from repro.apps.gossip import GossipConfig, make_view_gossip_factory
from repro.choice import PerformanceObjective, RandomResolver
from repro.mc import ConsequencePredictor
from repro.net import ViewConfig
from repro.runtime import CrystalBallRuntime, install_crystalball
from repro.statemachine import Cluster

from .test_resolver import GiverService, weighted_wealth


def _view_cluster(n=24, seed=6):
    config = GossipConfig(n=n, rumor_count=3, publish_interval=0.1)
    factory = make_view_gossip_factory(config, ViewConfig(shuffle_period=1.0))
    cluster = Cluster(n, factory, seed=seed,
                      resolver_factory=lambda nid: RandomResolver(seed))
    return cluster, factory


def test_invalid_scope_rejected():
    cluster, factory = _view_cluster(n=4)
    with pytest.raises(ValueError):
        CrystalBallRuntime(cluster.node(0), factory, prediction_scope="county")


def test_neighborhood_world_is_a_slice():
    cluster, factory = _view_cluster()
    cluster.start_all()
    cluster.run(until=6.0)          # let the overlay converge first
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.5, prediction_period=0.0,
        set_resolver=False, prediction_scope="neighborhood",
    )
    cluster.run(until=10.0)
    runtime = runtimes[0]
    world = runtime.current_world()
    expected = set(runtime.exchange.neighbors()) | {0}
    assert set(world.node_states) <= expected
    assert 0 in world.node_states
    # The slice is strictly smaller than the full membership.
    assert len(world.node_states) < 24


def test_global_scope_still_covers_all_collected_states():
    cluster, factory = _view_cluster(n=12)
    cluster.start_all()
    cluster.run(until=6.0)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.5, prediction_period=0.0,
        set_resolver=False, prediction_scope="global",
    )
    cluster.run(until=10.0)
    runtime = runtimes[0]
    world = runtime.current_world()
    # Global scope keeps every state the model has collected.
    assert set(world.node_states) == set(runtime.state_model.latest_states())


def test_neighborhood_scope_bounds_world_size_at_scale():
    """At n=96 a neighborhood world stays O(active_size), not O(n)."""
    cluster, factory = _view_cluster(n=96)
    cluster.start_all()
    cluster.run(until=6.0)
    node = cluster.node(0)
    runtime = CrystalBallRuntime(
        node, factory, checkpoint_period=0.5, prediction_period=0.0,
        prediction_scope="neighborhood",
    )
    runtime.start()
    for peer in cluster.service(0).active:
        CrystalBallRuntime(
            cluster.node(peer), factory, checkpoint_period=0.5,
            prediction_period=0.0, prediction_scope="neighborhood",
        ).start()
    cluster.run(until=10.0)
    world = runtime.current_world()
    assert len(world.node_states) <= ViewConfig().active_size + 1
    assert len(world.node_states) < 96 // 4


class ScopedGiver(GiverService):
    """Node 0 gives to node 1 or 2 and lists only them as neighbours;
    node 3 lists node 0, so node 0 still collects node 3's checkpoints."""

    def neighbors(self):
        return [1, 2] if self.node_id == 0 else [0]


def test_per_choice_scoring_predicts_over_the_neighborhood_slice(monkeypatch):
    scored = []
    predict = ConsequencePredictor.predict

    def recording(predictor, world):
        scored.append(set(world.node_states))
        return predict(predictor, world)

    monkeypatch.setattr(ConsequencePredictor, "predict", recording)
    factory = lambda node_id: ScopedGiver(node_id, 3)
    cluster = Cluster(4, factory, seed=1)
    runtimes = install_crystalball(
        cluster, factory, objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
        prediction_scope="neighborhood",
    )
    cluster.start_all()
    cluster.run(until=3.5)
    assert 3 in runtimes[0].state_model.latest_states()
    # Every scored world (two candidates per give) is self plus neighbours.
    assert len(scored) == 6
    assert all(nodes == {0, 1, 2} for nodes in scored), scored
