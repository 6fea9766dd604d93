"""Runtime extensions: change-triggered checkpoints, model sharing,
generic-node exploration, staleness gating."""

from repro.choice import FixedResolver
from repro.model import GenericNode
from repro.runtime import install_crystalball
from repro.statemachine import Cluster

from .test_controller import Bump, CounterService, factory


def test_broadcast_on_change_sends_fresh_checkpoints():
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.0,
        broadcast_on_change=True, min_broadcast_interval=0.0,
    )
    cluster.start_all()
    cluster.run(until=3.0)
    # Every Bump delivery changes the receiver's value -> broadcast.
    receiver_runtime = runtimes[1]
    assert receiver_runtime.stats["change_broadcasts"] > 0
    # Peers therefore know node 1's state despite no periodic exchange.
    assert 1 in runtimes[2].state_model.known_nodes()


def test_broadcast_on_change_rate_limited():
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.0,
        broadcast_on_change=True, min_broadcast_interval=10.0,
    )
    cluster.start_all()
    cluster.run(until=5.0)
    assert all(r.stats["change_broadcasts"] <= 1 for r in runtimes)


def test_no_change_no_broadcast():
    # Timer fires but state digest unchanged at node 0 (it only sends).
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.0,
        broadcast_on_change=True, min_broadcast_interval=0.0,
    )
    cluster.start_all()
    cluster.run(until=0.5)  # before any Bump arrives anywhere
    assert all(r.stats["change_broadcasts"] == 0 for r in runtimes)


def test_model_sharing_propagates_estimates():
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.0, model_share_period=1.0,
    )
    # Only node 0 has a measurement for the (1, 2) pair.
    runtimes[0].network_model.observe_latency(1, 2, 0.123, now=0.0)
    cluster.start_all()
    cluster.run(until=3.0)
    assert runtimes[1].network_model.latency(1, 2) == 0.123
    assert runtimes[2].network_model.latency(1, 2) == 0.123
    assert runtimes[0].stats["model_shares_sent"] > 0
    assert runtimes[1].stats["model_entries_adopted"] > 0


def test_model_sharing_keeps_fresher_local_estimate():
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.0, model_share_period=1.0,
    )
    runtimes[0].network_model.observe_latency(1, 2, 0.9, now=0.0)
    cluster.start_all()
    cluster.run(until=0.5)
    # Node 1 measures the same pair *later* than node 0 did.
    runtimes[1].network_model.observe_latency(1, 2, 0.1, now=cluster.sim.now)
    cluster.run(until=4.0)
    assert runtimes[1].network_model.latency(1, 2) == 0.1


def test_generic_node_included_in_prediction():
    generic = GenericNode()
    generic.add_template(lambda target: Bump(amount=1))
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.5,
        generic_node=generic, chain_depth=1, budget=500,
    )
    cluster.start_all()
    cluster.run(until=1.2)
    report = runtimes[0].run_prediction()
    from repro.mc import InjectAction

    assert any(isinstance(o.action, InjectAction) for o in report.outcomes)


def test_stale_snapshot_falls_back():
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.0,  # never exchange
        max_snapshot_age=1.0, fallback=FixedResolver(0),
    )
    del runtimes
    # Replace the service with one that makes a choice.
    from .test_resolver import factory as giver_factory

    cluster = Cluster(3, giver_factory, seed=3)
    runtimes = install_crystalball(
        cluster, giver_factory, checkpoint_period=0.0,
        max_snapshot_age=1.0, fallback=FixedResolver(0),
    )
    cluster.start_all()
    cluster.run(until=3.5)
    # No checkpoints ever collected -> every predictive resolution
    # degrades to the fallback (index 0 => candidate node 1).
    assert runtimes[0].stats["choices_fallback"] == 3
    assert cluster.service(1).wealth == 3


def test_fresh_snapshot_no_fallback():
    from .test_resolver import factory as giver_factory

    cluster = Cluster(3, giver_factory, seed=3)
    runtimes = install_crystalball(
        cluster, giver_factory, checkpoint_period=0.2,
        max_snapshot_age=5.0,
    )
    cluster.start_all()
    cluster.run(until=3.5)
    assert runtimes[0].stats["choices_fallback"] == 0
    assert runtimes[0].stats["choices_resolved"] == 3
