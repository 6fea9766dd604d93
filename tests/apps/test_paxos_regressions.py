"""Regression tests for the replica's correctness sweep.

Each test reproduces a bug that shipped in an earlier replica:

* a *lost NOOP* being re-sequenced into a fresh self-owned slot
  (burning slots and fuelling gap-fill churn), provoked by a
  partition + amnesia-crash plan;
* *duplicate execution* of a command chosen in two instances,
  provoked by a chaos plan that duplicates every message (the fixed
  leader proposes a duplicated forwarded batch twice);
* a *stale Nack* from a superseded round inflating ``min_round``.
"""

from __future__ import annotations

from repro.apps.paxos import (
    AGREEMENT,
    AT_MOST_ONCE,
    NOOP,
    Nack,
    PaxosConfig,
    PaxosReplica,
    leader_resolver,
    make_ballot,
    make_paxos_factory,
    unpack_value,
)
from repro.chaos import ChaosController, FaultPlan
from repro.chaos.plan import CrashEvent, LinkFaultEvent, PartitionEvent
from repro.mc import cluster_view
from repro.statemachine import Cluster


class NoopCountingPaxos(PaxosReplica):
    """Counts gap-fill NOOPs that lose their instance, and NOOPs that
    enter the *propose* path.

    Gap-fill coordinates NOOPs directly (legitimate); a NOOP going
    through ``propose`` means a lost filler was re-sequenced into a
    fresh slot — the bug.
    """

    def __init__(self, node_id, config=None):
        super().__init__(node_id, config)
        self.noop_proposals = 0
        self.lost_noops = 0

    def propose(self, value):
        if tuple(value) == NOOP or NOOP in tuple(value):
            self.noop_proposals += 1
        super().propose(value)

    def _value_chosen(self, instance, value):
        proposal = self.proposals.get(instance)
        if (proposal is not None and tuple(proposal["value"]) == NOOP
                and tuple(value) != NOOP):
            self.lost_noops += 1
        super()._value_chosen(instance, value)


def test_lost_noop_is_not_resequenced():
    """A gap-fill NOOP losing its slot to a recovered value must be
    dropped, not re-proposed into a fresh slot.

    The provoking plan partitions replica 2 away and amnesia-crashes
    it while the majority keeps deciding.  The recovered replica
    gap-fills NOOPs into its own slots that were in fact decided
    before the crash; peers answer with ``Learn`` of the real values,
    so those NOOPs lose their instances.
    """
    config = PaxosConfig(n=3, request_interval=0.5, requests_per_node=12)
    cluster = Cluster(3, lambda nid: NoopCountingPaxos(nid, config), seed=7)
    plan = FaultPlan(events=[
        PartitionEvent(at=2.0, groups=((0, 1), (2,)), heal_at=4.4),
        CrashEvent(at=2.2, node=2, amnesia=True, recover_at=4.5),
    ])
    controller = ChaosController(cluster, plan)
    controller.arm()
    cluster.start_all()
    cluster.run(until=20.0)

    assert AGREEMENT.holds(cluster_view(cluster))
    # The scenario must make at least one NOOP lose its instance,
    # otherwise it did not exercise the lost-value path.
    assert sum(s.lost_noops for s in cluster.services) >= 1
    burned = sum(s.noop_proposals for s in cluster.services)
    assert burned == 0, f"{burned} lost NOOP(s) were re-sequenced into fresh slots"


def test_no_duplicate_execution_under_message_duplication():
    """A command chosen in two instances must execute exactly once.

    Duplicating every message makes the fixed leader receive each
    forwarded batch twice and sequence the same command into two
    instances; both get chosen, and the replicated log must still
    apply the command once.
    """
    config = PaxosConfig(n=3, request_interval=0.5, requests_per_node=3)
    resolver = leader_resolver(0)
    cluster = Cluster(3, make_paxos_factory(config), seed=3,
                      resolver_factory=lambda node_id: resolver)
    plan = FaultPlan(events=[LinkFaultEvent(at=0.0, duplicate=0.95)])
    controller = ChaosController(cluster, plan)
    controller.arm()
    cluster.start_all()
    cluster.run(until=15.0)

    assert AGREEMENT.holds(cluster_view(cluster))
    # The scenario must actually double-choose at least one command …
    for service in cluster.services:
        commands = [c for value in service.chosen.values() for c in unpack_value(value)]
        if len(commands) > len(set(commands)):
            break
    else:
        raise AssertionError("no command was chosen in two instances; "
                             "the scenario lost its teeth")
    # … and the log must still apply each command at most once.
    assert AT_MOST_ONCE.holds(cluster_view(cluster)), "a command was executed twice"


def test_stale_nack_does_not_inflate_min_round():
    """A Nack for a ballot we already abandoned must be ignored.

    The proposal sits in replica 1's slot, so the Nack that counts
    raises ``min_round`` without touching replica 0's own-slot
    privilege."""
    config = PaxosConfig(n=3)
    replica = PaxosReplica(0, config)
    current = make_ballot(4, 0, 3)
    replica.proposals[1] = {
        "ballot": current,
        "value": (0, 0),
        "proposing": (0, 0),
        "phase": "prepare",
        "promise_from": [],
        "best_accepted_ballot": -1,
        "best_accepted_value": None,
        "accepted_from": [],
        "started_at": 0.0,
        "min_round": 1,
    }
    # A late Nack for our old round-1 attempt, carrying a competitor's
    # huge promise: it must not touch min_round.
    stale = Nack(instance=1, promised=make_ballot(40, 1, 3),
                 ballot=make_ballot(1, 0, 3))
    replica.on_nack(1, stale)
    assert replica.proposals[1]["min_round"] == 1
    assert replica.recent_conflicts == 0.0
    # The same promise on a Nack for the *current* ballot does count.
    fresh = Nack(instance=1, promised=make_ballot(40, 1, 3), ballot=current)
    replica.on_nack(1, fresh)
    assert replica.proposals[1]["min_round"] == 41
    assert replica.recent_conflicts == 1.0
