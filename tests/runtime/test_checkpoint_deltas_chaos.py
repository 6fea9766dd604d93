"""Delta checkpoints under chaos: the resync protocol earns its keep.

A7 fault plans drop, duplicate, and reorder the checkpoint stream.
Ack-anchored deltas must never leave a state model wedged on a stale
baseline: a delta is only diffed against a full the peer acknowledged,
and a missing/stale baseline degrades to fulls until an ack lands.
After the faults clear, every model must converge to exactly the
contents a full-broadcast-only run converges to.
"""

from repro.chaos import ChaosController, FaultPlan
from repro.chaos.plan import LinkFaultEvent, PartitionEvent
from repro.runtime import install_crystalball
from repro.statemachine import Cluster, Service, timer_handler

CHURN_UNTIL = 6.0
RUN_UNTIL = 14.0


class PhasedCounter(Service):
    """Mutates state until ``CHURN_UNTIL``, then holds still.

    The quiet tail lets the run end with every node's state static for
    several checkpoint rounds, so converged state models are exactly
    comparable across delta and full-broadcast modes.
    """

    state_fields = ("value", "table")

    def __init__(self, node_id):
        super().__init__(node_id)
        self.value = 0
        self.table = {f"slot{i}": 0 for i in range(10)}

    def on_init(self):
        self.set_timer("bump", 0.4)

    @timer_handler("bump")
    def on_bump(self, payload):
        if self.now() < CHURN_UNTIL:
            self.value += 1
            self.table[f"slot{self.value % 10}"] = self.value
        self.set_timer("bump", 0.4)


def lossy_link_plan():
    """Heavy message chaos on every link, healed well before the end."""
    return FaultPlan(events=[
        LinkFaultEvent(at=0.5, drop=0.3, duplicate=0.2, reorder=0.5,
                       reorder_jitter=0.3),
        LinkFaultEvent(at=8.0),  # replaces the profile: clean links
    ], name="lossy-links")


def partition_plan():
    return FaultPlan(events=[
        PartitionEvent(at=1.5, groups=((0, 1), (2,)), heal_at=5.0),
        LinkFaultEvent(at=0.5, drop=0.15, reorder=0.4, reorder_jitter=0.3),
        LinkFaultEvent(at=8.0),
    ], name="partition-plus-loss")


def run_cluster(plan, deltas, seed=7):
    cluster = Cluster(3, PhasedCounter, seed=seed)
    runtimes = install_crystalball(
        cluster, PhasedCounter, checkpoint_period=0.5,
        checkpoint_deltas=deltas,
    )
    ChaosController(cluster, plan).arm()
    cluster.start_all()
    cluster.run(until=RUN_UNTIL)
    return cluster, runtimes


def model_contents(runtimes):
    """(observer, peer) -> the patched NeighborCheckpoint's state."""
    return {
        (r.node.node_id, peer): r.state_model.get(peer).state
        for r in runtimes for peer in r.state_model.known_nodes()
        if peer != r.node.node_id
    }


def assert_converged_to_reality(cluster, runtimes):
    for (_, peer), state in model_contents(runtimes).items():
        live = cluster.service(peer)
        assert state["value"] == live.value
        assert state["table"] == live.table


def _converged_cases(plan):
    delta_cluster, delta_runtimes = run_cluster(plan, deltas=True)
    full_cluster, full_runtimes = run_cluster(plan, deltas=False)
    # Both modes converged to the senders' true (static) states...
    assert_converged_to_reality(delta_cluster, delta_runtimes)
    assert_converged_to_reality(full_cluster, full_runtimes)
    # ...and therefore to each other, checkpoint for checkpoint.
    assert model_contents(delta_runtimes) == model_contents(full_runtimes)
    return delta_runtimes


def test_lossy_links_resync_converges():
    runtimes = _converged_cases(lossy_link_plan())
    # The chaos actually stressed the protocol: deltas flowed, and at
    # least one baseline went missing or stale along the way.
    assert sum(r.stats["delta_checkpoints_sent"] for r in runtimes) > 0
    stressed = sum(
        r.stats["deltas_ignored"] + r.stats["resync_fulls_sent"]
        for r in runtimes
    )
    assert stressed > 0


def test_partition_resync_converges():
    runtimes = _converged_cases(partition_plan())
    assert sum(r.stats["delta_checkpoints_sent"] for r in runtimes) > 0
    # The partitioned node missed fulls: it must have forced resyncs
    # (fulls re-sent to an unacked peer) or ignored unpatchable deltas.
    stressed = sum(
        r.stats["deltas_ignored"] + r.stats["resync_fulls_sent"]
        for r in runtimes
    )
    assert stressed > 0


def test_duplicated_and_reordered_acks_never_regress_baseline():
    """Duplicate/reordered acks must not let a *stale* full be adopted
    as baseline (epoch monotonicity of the exchange's peer acks and
    receiver baselines)."""
    _, runtimes = run_cluster(lossy_link_plan(), deltas=True)
    for r in runtimes:
        for peer in r.state_model.known_nodes():
            base = r.exchange.baseline(peer)
            latest = r.state_model.get(peer)
            if base is not None and latest is not None:
                assert base.epoch <= latest.epoch
