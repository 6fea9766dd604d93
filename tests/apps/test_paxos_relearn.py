"""Re-learning a decided Paxos instance is one lookup.

A duplicate ``Learn`` or a ``CatchupResponse`` page that overlaps the
decided prefix re-learns instances the replica already holds.
``_value_chosen`` answers those by raising ``max_inst`` and pumping, and
``on_catchup_response`` normalizes only the entries it has not decided.
These tests pin that a re-learn leaves the log and the client
bookkeeping alone, what its pump does on a loaded replica, and, against
the old learner kept in :mod:`.legacy_learner`, that whole chaotic
worlds run the same but for one listed difference: when a replica
re-requests, after an amnesia restart, a command whose instance it has
already learned, the command's commit stamp comes later.
"""

from __future__ import annotations

import pytest

from repro.apps.paxos import (
    CatchupResponse,
    ClientLoad,
    Learn,
    PaxosConfig,
    PaxosReplica,
    SubmitBurst,
    make_paxos_factory,
    unpack_value,
)
from repro.chaos import ChaosController, FaultPlan
from repro.chaos.plan import CrashEvent, LinkFaultEvent, PartitionEvent
from repro.sim.trace import trace_digest
from repro.statemachine import Cluster, digest

from .legacy_learner import LegacyLearnerReplica

# What a re-learn must leave exactly as it found it.
LOG_FIELDS = ("chosen", "committed", "executed", "applied", "exec_upto")


def _log(service):
    checkpoint = service.checkpoint()
    return {name: checkpoint[name] for name in LOG_FIELDS}


def _settled():
    """Three healthy replicas that decided and executed four batches
    of replica 0's commands."""
    config = PaxosConfig(n=3, requests_per_node=0, batch_size_choices=(2,),
                         pipeline_depth=2)
    cluster = Cluster(3, make_paxos_factory(config), seed=3)
    cluster.start_all()
    origin = cluster.service(0)
    cluster.sim.schedule_at(
        0.5, lambda: [origin.submit((0, k)) for k in range(8)], tag="test:submit",
    )
    cluster.run(until=10.0)
    return cluster


def test_duplicate_learn_of_a_decided_instance_only_raises_max_inst():
    cluster = _settled()
    replica = cluster.service(0)
    assert len(replica.committed) == 8 and not replica.proposals
    first, last = min(replica.chosen), max(replica.chosen)
    assert replica.exec_upto == last + 1
    before = _log(replica)
    chosen_records = cluster.sim.trace.count("paxos.chosen")
    # Lowered by hand so the re-learn has something to raise: a decided
    # instance normally lies at or below it already.
    replica.max_inst = -1
    for instance in (last, first):
        replica.deliver(1, Learn(instance=instance, value=replica.chosen[instance]))
    assert _log(replica) == before
    assert replica.max_inst == last
    assert cluster.sim.trace.count("paxos.chosen") == chosen_records


def test_catchup_page_over_the_decided_prefix_learns_only_the_new_entry():
    cluster = _settled()
    replica = cluster.service(0)
    frontier = max(replica.chosen)
    before = _log(replica)
    # Wire-shaped values (lists, as after a JSON round trip): the
    # decided entries are skipped as they are, the undecided one is
    # normalized and learned through the full path.
    entries = {
        instance: [list(command) for command in unpack_value(value)]
        for instance, value in replica.chosen.items()
    }
    entries[frontier + 1] = [[2, 0], [2, 1]]
    replica.max_inst = -1
    replica.deliver(1, CatchupResponse(entries=entries, max_inst=-1))

    after = _log(replica)
    assert replica.max_inst == frontier + 1
    assert after["chosen"] == {**before["chosen"], frontier + 1: ((2, 0), (2, 1))}
    assert after["exec_upto"] == frontier + 2
    assert after["executed"] == before["executed"] + [(2, 0), (2, 1)]
    assert after["applied"] == before["applied"] | {(2, 0), (2, 1)}
    assert after["committed"] == before["committed"]


def test_relearn_of_an_instance_still_being_proposed_takes_the_full_path():
    # An own proposal in a decided instance (an amnesia-restarted
    # replica proposing into slots it already learned) lost it: the
    # re-learn must still drop the proposal and re-enqueue its batch.
    cluster = _settled()
    replica = cluster.service(0)
    last = max(replica.chosen)
    replica._coordinate_in(last, ((0, 100),))
    replica.deliver(1, Learn(instance=last, value=replica.chosen[last]))
    assert last not in replica.proposals
    assert [(i > last, p["value"]) for i, p in replica.proposals.items()] == \
        [(True, ((0, 100),))]


@pytest.mark.parametrize("replica_cls", [PaxosReplica, LegacyLearnerReplica])
def test_relearn_on_a_loaded_replica_pumps_past_its_cpu_queue(replica_cls):
    """``_pump`` counts pipeline depth from ``proposals`` only, so the
    batches a loaded replica holds in ``cpu_queue`` sit outside
    ``pipeline_depth``: with commands pending, every pump (a re-learn's
    included) moves up to ``pipeline_depth`` more batches into the
    queue.  The re-learn keeps that pump, so the old and the new
    learner leave the same queue behind."""
    config = PaxosConfig(n=3, requests_per_node=0, processing_delays=(0.5, 0.0, 0.0),
                         batch_size_choices=(1,), pipeline_depth=2)
    cluster = Cluster(3, lambda nid: replica_cls(nid, config), seed=1)
    cluster.start_all()
    replica = cluster.service(0)
    cluster.sim.schedule_at(0.1, lambda: replica.submit((0, 0)), tag="test:submit")
    cluster.run(until=3.0)
    assert 0 in replica.chosen and not replica.proposals and not replica.cpu_queue

    replica.deliver(0, SubmitBurst(commands=tuple((0, k) for k in range(1, 7)), origin=0))
    assert (len(replica.cpu_queue), len(replica.pending)) == (2, 4)
    before = _log(replica)
    replica.deliver(1, Learn(instance=0, value=replica.chosen[0]))
    assert list(replica.cpu_queue) == [((0, 1),), ((0, 2),), ((0, 3),), ((0, 4),)]
    assert list(replica.pending) == [(0, 5), (0, 6)]
    assert not replica.proposals
    assert _log(replica) == before


# ----------------------------------------------------------------------
# Differential: the old learner as oracle
# ----------------------------------------------------------------------


def _chaos_world(replica_cls, seed, client_load):
    """Five replicas under message chaos (drops, duplicates, reorders,
    corruption), a partition and an amnesia crash of replica 4.

    With ``client_load`` a :class:`ClientLoad` offers fresh commands;
    otherwise each replica's own client timer does, and replica 4
    re-requests its first commands after the amnesia restart.  Returns
    every replica's checkpoint every half second and the trace digest.
    """
    config = PaxosConfig(n=5, request_interval=0.2,
                         requests_per_node=0 if client_load else 40)
    cluster = Cluster(5, lambda nid: replica_cls(nid, config), seed=seed)
    plan = FaultPlan(events=[
        LinkFaultEvent(at=0.5, drop=0.1, duplicate=0.2, reorder=0.2, corrupt=0.05),
        PartitionEvent(at=2.0, groups=((0, 1, 2), (3, 4)), heal_at=4.0),
        CrashEvent(at=3.0, node=4, amnesia=True, recover_at=5.0),
    ])
    ChaosController(cluster, plan).arm()
    cluster.start_all()
    if client_load:
        ClientLoad(cluster, total_requests=600, window=32, burst=8, tick=0.1).arm()
    steps = []
    for step in range(1, 25):
        cluster.run(until=0.5 * step)
        steps.append([service.checkpoint() for service in cluster.services])
    return steps, trace_digest(cluster.sim.trace)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_client_load_world_matches_the_old_learner(seed):
    old_steps, old_trace = _chaos_world(LegacyLearnerReplica, seed, client_load=True)
    new_steps, new_trace = _chaos_world(PaxosReplica, seed, client_load=True)
    assert new_trace == old_trace
    for old, new in zip(old_steps, new_steps):
        assert list(map(digest, new)) == list(map(digest, old))


# Client-timer worlds: the commands whose commit stamp on replica 4 is
# not the old learner's.  Each is one replica 4 re-requested after its
# amnesia restart, when catch-up had already taught it the instance that
# decided the command.  The old learner stamped it at the next chance
# re-learn of that instance; the new one stamps it when the command's
# re-proposal is decided.
RESTAMPED = {1: set(), 2: {(4, 6)}, 15: {(4, 5), (4, 7), (4, 8)}}


@pytest.mark.parametrize("seed", sorted(RESTAMPED))
def test_client_timer_world_matches_the_old_learner_but_for_restamped_commits(seed):
    old_steps, old_trace = _chaos_world(LegacyLearnerReplica, seed, client_load=False)
    new_steps, new_trace = _chaos_world(PaxosReplica, seed, client_load=False)
    assert new_trace == old_trace
    restamped = set()
    for old, new in zip(old_steps, new_steps):
        for node, (was, now) in enumerate(zip(old, new)):
            assert {**was, "committed": None} == {**now, "committed": None}, node
            moved = {command for command in was["committed"].keys() | now["committed"].keys()
                     if was["committed"].get(command) != now["committed"].get(command)}
            assert not moved or node == 4, (node, moved)
            restamped |= moved
    assert restamped == RESTAMPED[seed]
    # Both learners end up having committed the same commands.
    assert [set(c["committed"]) for c in old_steps[-1]] == \
        [set(c["committed"]) for c in new_steps[-1]]
