"""Checkpoint delta encoding: correctness, resync, and bytes saved."""

from repro.runtime import install_crystalball
from repro.statemachine import Cluster

from .test_controller import CounterService, factory


def make_cluster(deltas: bool):
    cluster = Cluster(3, factory, seed=5)
    runtimes = install_crystalball(
        cluster, factory, checkpoint_period=0.5, checkpoint_deltas=deltas,
    )
    cluster.start_all()
    return cluster, runtimes


def assert_models_match_reality(cluster, runtimes, max_staleness=1.0):
    """Every state model entry equals some recent true state.

    With per-field deltas the patched state must exactly equal the
    sender's checkpoint at broadcast time; comparing to the current
    live state works because CounterService state only grows."""
    for runtime in runtimes:
        for peer in runtime.state_model.known_nodes():
            if peer == runtime.node.node_id:
                continue
            model_value = runtime.state_model.get(peer).state["value"]
            live_value = cluster.service(peer).value
            assert model_value <= live_value
            # Staleness bounded: at most a couple of broadcasts behind.
            assert live_value - model_value <= 3


def test_delta_patched_states_correct():
    cluster, runtimes = make_cluster(deltas=True)
    cluster.run(until=10.0)
    assert_models_match_reality(cluster, runtimes)
    # Deltas actually flowed.
    assert all(r.stats["delta_checkpoints_sent"] > 0 for r in runtimes)
    assert all(r.stats["full_checkpoints_sent"] > 0 for r in runtimes)


def test_full_checkpoint_cadence():
    cluster, runtimes = make_cluster(deltas=True)
    cluster.run(until=10.0)
    runtime = runtimes[0]
    fulls = runtime.stats["full_checkpoints_sent"]
    deltas = runtime.stats["delta_checkpoints_sent"]
    # At least one full per _FULL_CHECKPOINT_EVERY (5) deltas.
    assert fulls >= deltas / 5


def test_deltas_save_bytes():
    """Deltas pay off when most of the state is stable.

    A service with a large static field (the common case: routing
    tables, file maps, peer lists) plus one hot counter: full
    checkpoints re-send everything, deltas only the counter.
    """
    from repro.statemachine import Service, timer_handler

    class BigStateService(Service):
        state_fields = ("blob", "counter")

        def __init__(self, node_id):
            super().__init__(node_id)
            self.blob = {f"entry{i}": list(range(8)) for i in range(40)}
            self.counter = 0

        def on_init(self):
            self.set_timer("bump", 0.4)

        @timer_handler("bump")
        def on_bump(self, payload):
            self.counter += 1
            self.set_timer("bump", 0.4)

    def run(deltas):
        cluster = Cluster(3, BigStateService, seed=5)
        runtimes = install_crystalball(
            cluster, BigStateService, checkpoint_period=0.5,
            checkpoint_deltas=deltas,
        )
        cluster.start_all()
        cluster.run(until=10.0)
        return sum(r.stats["checkpoint_bytes_sent"] for r in runtimes)

    bytes_deltas = run(True)
    bytes_full = run(False)
    assert bytes_deltas < 0.5 * bytes_full


def test_missed_base_resyncs_at_next_full():
    cluster, runtimes = make_cluster(deltas=True)
    cluster.run(until=2.2)
    # Partition node 2 away so it misses some broadcasts (deltas with
    # unseen bases).
    cluster.network.set_partition([{0, 1}, {2}])
    cluster.run(until=4.2)
    cluster.network.clear_partition()
    cluster.run(until=10.0)
    # After healing, node 2's view of node 0 catches up via a full.
    model_value = runtimes[2].state_model.get(0)
    assert model_value is not None
    assert cluster.service(0).value - model_value.state["value"] <= 3
    assert_models_match_reality(cluster, runtimes)


def test_deltas_ignored_counted_when_base_missing():
    cluster, runtimes = make_cluster(deltas=True)
    # Node 2 misses the start: wipe its state model mid-run to force
    # base mismatches.
    cluster.run(until=1.2)
    runtimes[2].state_model.forget(0)
    cluster.run(until=2.2)
    assert runtimes[2].stats["deltas_ignored"] > 0
