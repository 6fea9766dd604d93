"""Integration tests for Multi-Paxos batching, pipelining and recovery.

Covers the paths the throughput benchmark cannot observe directly:

* batched commit + execution unpacking (a multi-command log value
  executes as its constituent commands, in order, exactly once);
* ranged-prepare privilege re-acquisition after a provoked preemption
  (the amnesia-free chaos plans never preempt round 0, so the
  ``PrepareRange``/``PromiseRange`` machinery needs its own scenario);
* learner catch-up paging a partitioned replica's missed prefix in
  (gap-fill cannot recover other owners' decided values — only
  ``Catchup`` can);
* lost-batch resequencing after an amnesia crash (commands from a
  batch that lost its instance to an older decided value are
  re-enqueued, not dropped and not double-executed);
* the closed-loop :class:`~repro.apps.paxos.ClientLoad` generator
  committing its full offered volume on a healthy cluster.
"""

from __future__ import annotations

from repro.apps.paxos import (
    ClientLoad,
    NOOP,
    PaxosConfig,
    PaxosReplica,
    SAFETY,
    make_paxos_factory,
    make_throughput_resolver,
    unpack_value,
)
from repro.chaos import ChaosController, FaultPlan
from repro.chaos.plan import CrashEvent, PartitionEvent
from repro.eval.paxos_experiment import DEFAULT_LOADS, wan_topology
from repro.mc import cluster_view, violated_properties
from repro.statemachine import Cluster


class InstrumentedReplica(PaxosReplica):
    """Counts ranged prepares and batches that lose their instance
    (handlers collect base-first, so only non-handler methods can be
    instrumented by subclassing)."""

    def __init__(self, node_id, config=None):
        super().__init__(node_id, config)
        self.ranges_acquired = 0
        self.batches_resequenced = 0

    def _acquire_range(self, round_number):
        self.ranges_acquired += 1
        super()._acquire_range(round_number)

    def _value_chosen(self, instance, value):
        proposal = self.proposals.get(instance)
        if proposal is not None and tuple(proposal["value"]) not in (tuple(value), NOOP):
            self.batches_resequenced += 1
        super()._value_chosen(instance, value)


def _cluster(n=3, seed=11, **config_kwargs):
    config = PaxosConfig(n=n, requests_per_node=0, **config_kwargs)
    cluster = Cluster(n, lambda nid: InstrumentedReplica(nid, config), seed=seed)
    return cluster


def _submit(cluster, at, replica, commands):
    service = cluster.service(replica)
    cluster.sim.schedule_at(
        at, lambda: [service.submit(tuple(c)) for c in commands],
        tag="test:submit",
    )


def _chosen_commands(service):
    return [
        c
        for value in service.chosen.values()
        if tuple(value) != NOOP
        for c in unpack_value(value)
    ]


def test_batched_commit_executes_every_command_once():
    """With batch size 8 as the static default, 40 commands land in
    multi-command log values and execute exactly once, in log order,
    on every replica."""
    cluster = _cluster(batch_size_choices=(8,), pipeline_depth=2,
                       retry_pacing_choices=(1.0,))
    cluster.start_all()
    commands = [(0, k) for k in range(40)]
    _submit(cluster, 0.5, 0, commands)
    cluster.run(until=20.0)

    assert violated_properties(cluster_view(cluster), SAFETY) == []
    reference = cluster.service(0)
    assert set(reference.executed) == set(commands)
    for service in cluster.services:
        assert service.executed == reference.executed
    batch_sizes = [
        len(unpack_value(v)) for v in reference.chosen.values()
        if tuple(v) != NOOP
    ]
    assert max(batch_sizes) > 1, "no multi-command batch was ever decided"


def test_ranged_prepare_reacquires_privilege_after_preemption():
    """A replica whose round-0 privilege is rejected re-acquires
    phase-1 freedom with ONE ranged prepare and then commits at the
    higher round without further phase 1."""
    cluster = _cluster(batch_size_choices=(4,), pipeline_depth=1,
                       retry_pacing_choices=(1.0,))
    cluster.start_all()

    def revoke():
        # Both peers granted owner 0's slots (from instance 0) to a
        # phantom round-3 acquisition: replica 0's round-0 Accepts now
        # hit a higher floor and come back as Nacks.
        for peer in (1, 2):
            cluster.service(peer).range_promised[0] = [3, 0]

    cluster.sim.schedule_at(0.5, revoke, tag="test:revoke")
    commands = [(0, k) for k in range(12)]
    _submit(cluster, 1.0, 0, commands)
    cluster.run(until=20.0)

    replica = cluster.service(0)
    assert replica.ranges_acquired >= 1, "preemption never triggered a ranged prepare"
    assert replica.phase1_ok, "the ranged prepare never reached quorum"
    assert replica.range_round >= 4, (
        f"re-acquired round {replica.range_round} does not beat the floor"
    )
    assert violated_properties(cluster_view(cluster), SAFETY) == []
    for service in cluster.services:
        assert set(commands) <= set(service.executed), "commands lost to preemption"


def test_learner_catchup_recovers_partitioned_replica():
    """A replica partitioned away while the majority decides a prefix
    can only recover other owners' values via Catchup — gap-fill fills
    its OWN slots with NOOPs.  After healing, its log must converge."""
    cluster = _cluster(seed=5, batch_size_choices=(4,), pipeline_depth=2,
                       retry_pacing_choices=(1.0,), catchup_period=0.5)
    plan = FaultPlan(events=[
        PartitionEvent(at=1.0, groups=((0, 1), (2,)), heal_at=8.0),
    ])
    ChaosController(cluster, plan).arm()
    cluster.start_all()
    first = [(0, k) for k in range(24)]
    second = [(0, 100 + k) for k in range(8)]
    _submit(cluster, 2.0, 0, first)      # decided while 2 is cut off
    _submit(cluster, 9.0, 0, second)     # post-heal traffic reveals max_inst
    cluster.run(until=40.0)

    assert violated_properties(cluster_view(cluster), SAFETY) == []
    majority, learner = cluster.service(0), cluster.service(2)
    assert set(first) <= set(majority.executed)
    assert learner.executed == majority.executed, (
        "the partitioned replica never caught up on the missed prefix"
    )


def test_lost_batch_is_resequenced_after_amnesia():
    """An amnesia-crashed replica re-proposes fresh batches into own
    slots that were already decided; the losing batches' commands must
    be re-enqueued into later instances, never dropped or re-applied."""
    cluster = _cluster(seed=9, batch_size_choices=(4,), pipeline_depth=1,
                       retry_pacing_choices=(1.0,))
    plan = FaultPlan(events=[
        CrashEvent(at=2.0, node=0, amnesia=True, recover_at=3.0),
    ])
    ChaosController(cluster, plan).arm()
    cluster.start_all()
    first = [(0, k) for k in range(8)]         # decided pre-crash
    second = [(0, 100 + k) for k in range(8)]  # proposed into burnt slots
    _submit(cluster, 0.5, 0, first)
    _submit(cluster, 4.0, 0, second)
    cluster.run(until=40.0)

    assert violated_properties(cluster_view(cluster), SAFETY) == []
    replica = cluster.service(0)
    assert replica.batches_resequenced >= 1, (
        "the amnesia scenario never made a batch lose its instance"
    )
    for service in cluster.services:
        assert set(second) <= set(service.executed), "a resequenced batch was lost"
        assert set(first) <= set(service.executed)


def test_client_load_closed_loop_commits_offered_volume():
    """On a healthy WAN cluster with the throughput resolver, the
    closed-loop generator offers its full volume and every command
    commits everywhere."""
    n = 5
    config = PaxosConfig(n=n, requests_per_node=0,
                         processing_delays=DEFAULT_LOADS)
    topology = wan_topology(n)
    resolver = make_throughput_resolver(topology, config)
    cluster = Cluster(
        n, make_paxos_factory(config),
        topology=topology, seed=3,
        resolver_factory=lambda nid: resolver,
    )
    load = ClientLoad(cluster, total_requests=600, window=128, burst=64,
                      tick=0.05)
    cluster.start_all()
    load.arm()
    cluster.run(until=40.0)

    assert load.offered() == 600
    assert violated_properties(cluster_view(cluster), SAFETY) == []
    reference = cluster.service(0)
    assert len(reference.executed) == 600, (
        f"only {len(reference.executed)} of 600 offered commands executed"
    )
    for service in cluster.services:
        assert service.executed == reference.executed
    sizes = [
        len(unpack_value(v)) for v in reference.chosen.values()
        if tuple(v) != NOOP
    ]
    assert max(sizes) > 1, "the resolver never chose a real batch"


def test_value_normalization_keeps_canonical_batches_and_rebuilds_the_rest():
    # A batch that already is a tuple of tuples is the common case on
    # every Learn/Accepted; it must come back as the same object, and
    # every other shape must normalize exactly as before.
    from repro.apps.paxos.replica import _plain_value

    batch = ((0, 1), (0, 2), (1, 1))
    assert unpack_value(batch) is batch
    assert _plain_value(batch) is batch
    for loose in ([[0, 1], [0, 2]], ([0, 1], (0, 2)), [(0, 1), (0, 2)]):
        assert unpack_value(loose) == ((0, 1), (0, 2)) == _plain_value(loose)
        assert all(type(c) is tuple for c in unpack_value(loose) + _plain_value(loose))
    assert unpack_value((3, 4)) == ((3, 4),) and _plain_value([3, 4]) == (3, 4)
    assert unpack_value(NOOP) == () and unpack_value(()) == ()
    assert _plain_value(NOOP) == NOOP and _plain_value(()) == ()
