"""Runtime extensions: change-triggered checkpoints."""

from repro.runtime import install_crystalball
from repro.statemachine import Cluster

from .test_controller import factory


def test_broadcast_on_change_sends_fresh_checkpoints():
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.0,
        broadcast_on_change=True,
    )
    cluster.start_all()
    cluster.run(until=3.0)
    # Every Bump delivery changes the receiver's value -> broadcast.
    receiver_runtime = runtimes[1]
    assert receiver_runtime.stats["change_broadcasts"] > 0
    # Peers therefore know node 1's state despite no periodic exchange.
    assert 1 in runtimes[2].state_model.known_nodes()


def test_no_change_no_broadcast():
    # Timer fires but state digest unchanged at node 0 (it only sends).
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.0,
        broadcast_on_change=True,
    )
    cluster.start_all()
    cluster.run(until=0.5)  # before any Bump arrives anywhere
    assert all(r.stats["change_broadcasts"] == 0 for r in runtimes)
