"""Regression tests for the replica.py correctness sweep.

Each test reproduces a bug that shipped in the pre-batching replica:

* a *lost NOOP* being re-sequenced into a fresh self-owned slot
  (burning slots and fuelling gap-fill churn), provoked by a
  partition + amnesia-crash plan;
* *duplicate execution* of a command chosen in two instances,
  provoked by a chaos plan that duplicates every message (the leader
  proposes a duplicated ClientRequest twice);
* a *stale Nack* from a superseded round inflating ``min_round``.
"""

from __future__ import annotations

from repro.apps.paxos import (
    AGREEMENT,
    AT_MOST_ONCE,
    MenciusPaxos,
    NOOP,
    Nack,
    PaxosConfig,
    make_ballot,
    make_paxos_factory,
)
from repro.chaos import ChaosController, FaultPlan
from repro.chaos.plan import CrashEvent, LinkFaultEvent, PartitionEvent
from repro.mc import cluster_view
from repro.statemachine import Cluster


class NoopCountingPaxos(MenciusPaxos):
    """Mencius replica that counts NOOPs entering the *propose* path.

    Gap-fill coordinates NOOPs directly (legitimate); a NOOP going
    through ``propose`` means a lost filler was re-sequenced into a
    fresh slot — the bug.
    """

    def __init__(self, node_id, config=None):
        super().__init__(node_id, config)
        self.noop_proposals = 0

    def propose(self, command):
        if tuple(command) == NOOP:
            self.noop_proposals += 1
        super().propose(command)


def test_lost_noop_is_not_resequenced():
    """A gap-fill NOOP losing its slot to a recovered value must be
    dropped, not re-proposed into a fresh slot.

    The provoking plan partitions replica 2 away and amnesia-crashes
    it while the majority keeps deciding.  The recovered replica
    gap-fills NOOPs into its own slots that were in fact decided
    before the crash; peers answer with ``Learn`` of the real values,
    so every one of those NOOPs loses its instance.
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
    # The recovered replica must have faced at least one losing
    # proposal (its re-proposed commands hit already-decided slots),
    # otherwise the scenario did not exercise the lost-value path.
    assert any(s.chosen for s in cluster.services)
    burned = sum(s.noop_proposals for s in cluster.services)
    assert burned == 0, f"{burned} lost NOOP(s) were re-sequenced into fresh slots"


def test_no_duplicate_execution_under_message_duplication():
    """A command chosen in two instances must execute exactly once.

    Duplicating every message makes the fixed leader receive each
    forwarded ClientRequest twice and sequence the same command into
    two instances; both get chosen, and the replicated log must still
    apply the command once.
    """
    config = PaxosConfig(n=3, request_interval=0.5, requests_per_node=3)
    cluster = Cluster(3, make_paxos_factory("fixed", config), seed=3)
    plan = FaultPlan(events=[LinkFaultEvent(at=0.0, duplicate=0.95)])
    controller = ChaosController(cluster, plan)
    controller.arm()
    cluster.start_all()
    cluster.run(until=15.0)

    assert AGREEMENT.holds(cluster_view(cluster))
    # The scenario must actually double-choose at least one command …
    for service in cluster.services:
        commands = [
            value for value in service.chosen.values()
            if tuple(value) != NOOP
        ]
        if len(commands) > len(set(commands)):
            break
    else:
        raise AssertionError("no command was chosen in two instances; "
                             "the scenario lost its teeth")
    # … and the log must still apply each command at most once.
    assert AT_MOST_ONCE.holds(cluster_view(cluster)), "a command was executed twice"


def test_stale_nack_does_not_inflate_min_round():
    """A Nack for a ballot we already abandoned must be ignored."""
    config = PaxosConfig(n=3)
    replica = MenciusPaxos(0, config)
    current = make_ballot(4, 0, 3)
    replica.proposals[0] = {
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
    stale = Nack(instance=0, promised=make_ballot(40, 1, 3),
                 ballot=make_ballot(1, 0, 3))
    replica.on_nack(1, stale)
    assert replica.proposals[0]["min_round"] == 1
    # The same promise on a Nack for the *current* ballot does count.
    fresh = Nack(instance=0, promised=make_ballot(40, 1, 3), ballot=current)
    replica.on_nack(1, fresh)
    assert replica.proposals[0]["min_round"] == 41
