"""Paxos protocol: commits, agreement, recovery, contention."""

import pytest

from repro.apps.paxos import (
    Accept,
    AGREEMENT,
    NOOP,
    PaxosConfig,
    Prepare,
    leader_resolver,
    make_ballot,
    make_paxos_factory,
    make_proposer_resolver,
    slot_owner,
    unpack_value,
)
from repro.choice.resolvers import FirstResolver, RandomResolver
from repro.mc import cluster_view
from repro.statemachine import Cluster

# How each design resolves the one "proposer" choice.  "choice" draws
# every choice at random: any resolution must commit everything.
RESOLVERS = {
    "fixed": lambda: leader_resolver(0),
    "mencius": FirstResolver,
    "choice": RandomResolver,
}


def run_paxos(variant="mencius", n=3, seed=1, requests=3, until=30.0, **config_kw):
    config = PaxosConfig(
        n=n, requests_per_node=requests, request_interval=0.5, **config_kw,
    )
    resolver = RESOLVERS[variant]()
    cluster = Cluster(n, make_paxos_factory(config), seed=seed,
                      resolver_factory=lambda node_id: resolver)
    cluster.start_all()
    cluster.run(until=until)
    return cluster


def test_ballot_encoding_roundtrip():
    ballot = make_ballot(3, 2, 5)
    assert ballot % 5 == 2  # the proposer is the ballot modulo n
    assert make_ballot(4, 0, 5) > ballot  # higher round dominates


def test_slot_ownership_partition():
    assert [slot_owner(i, 3) for i in range(6)] == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("variant", ["fixed", "mencius", "choice"])
def test_all_commands_commit(variant):
    cluster = run_paxos(variant)
    total = sum(len(s.committed) for s in cluster.services)
    assert total == 9
    assert AGREEMENT.holds(cluster_view(cluster))


def test_learners_converge_on_chosen_values():
    cluster = run_paxos("mencius")
    reference = cluster.service(0).chosen
    for service in cluster.services:
        assert service.chosen == reference


def test_commit_latency_positive():
    cluster = run_paxos("mencius")
    for service in cluster.services:
        for latency in service.commit_latencies():
            assert latency > 0


def test_fixed_leader_proposes_everything():
    cluster = run_paxos("fixed")
    # All real commands live in the leader's slot partition; other
    # partitions' instances are gap-filling NOOPs only.
    chosen = cluster.service(0).chosen
    for instance, value in chosen.items():
        if slot_owner(instance, 3) != 0:
            assert value == NOOP
        else:
            assert value != NOOP
    assert sorted(c for v in chosen.values() for c in unpack_value(v)) == [
        (origin, seq) for origin in range(3) for seq in range(3)]


def test_mencius_instances_partitioned_by_origin():
    cluster = run_paxos("mencius")
    for instance, value in cluster.service(0).chosen.items():
        for origin, _seq in unpack_value(value):
            assert slot_owner(instance, 3) == origin


def test_contention_resolved_safely():
    """Two proposers fight over one instance with full two-phase Paxos."""
    config = PaxosConfig(n=3, requests_per_node=0)
    cluster = Cluster(3, make_paxos_factory(config), seed=2)
    cluster.start_all()
    # Both 1 and 2 propose different values for instance 0 (owned by 0)
    # using competing prepare rounds.
    s1, s2 = cluster.service(1), cluster.service(2)
    instance = 0
    for service, round_number in ((s1, 1), (s2, 2)):
        ballot = make_ballot(round_number, service.node_id, 3)
        service.proposals[instance] = {
            "ballot": ballot, "value": (service.node_id, 99),
            "proposing": (service.node_id, 99), "phase": "prepare",
            "promise_from": [], "best_accepted_ballot": -1,
            "best_accepted_value": None, "accepted_from": [],
            "started_at": cluster.sim.now,
        }
        for peer in range(3):
            service.send(peer, Prepare(instance=instance, ballot=ballot))
    cluster.run(until=30.0)
    assert AGREEMENT.holds(cluster_view(cluster))
    assert any(instance in s.chosen for s in cluster.services)  # someone decided


def test_recovery_value_preserved():
    """A value accepted by a majority must survive a new prepare round."""
    config = PaxosConfig(n=3, requests_per_node=0)
    cluster = Cluster(3, make_paxos_factory(config), seed=3)
    cluster.start_all()
    instance = 0
    old_ballot = make_ballot(0, 0, 3)
    # Acceptors 0 and 1 accepted (0, 7) at ballot 0 — a majority.
    for node_id in (0, 1):
        service = cluster.service(node_id)
        service.promised[instance] = old_ballot
        service.accepted[instance] = [old_ballot, [0, 7]]
    # Node 2 now runs a full round with a higher ballot and its own value.
    s2 = cluster.service(2)
    ballot = make_ballot(1, 2, 3)
    s2.proposals[instance] = {
        "ballot": ballot, "value": (2, 99), "proposing": (2, 99),
        "phase": "prepare", "promise_from": [], "best_accepted_ballot": -1,
        "best_accepted_value": None, "accepted_from": [],
        "started_at": cluster.sim.now,
    }
    for peer in range(3):
        s2.send(peer, Prepare(instance=instance, ballot=ballot))
    cluster.run(until=30.0)
    # Paxos safety: the previously accepted value must be the one chosen.
    assert cluster.service(2).chosen[instance] == (0, 7)
    assert AGREEMENT.holds(cluster_view(cluster))


def test_acceptor_nacks_lower_ballot():
    config = PaxosConfig(n=3, requests_per_node=0)
    cluster = Cluster(3, make_paxos_factory(config), seed=4)
    cluster.start_all()
    acceptor = cluster.service(0)
    acceptor.promised[5] = make_ballot(9, 1, 3)
    # A stale Accept with a lower ballot must be rejected.
    cluster.network.send(2, 0, Accept(instance=5, ballot=make_ballot(1, 2, 3),
                                      value=(2, 1)))
    cluster.run(until=2.0)
    assert 5 not in acceptor.accepted


def test_retry_after_lost_majority():
    """Proposer escalates when the accept round stalls (peers down)."""
    config = PaxosConfig(n=3, requests_per_node=1, retry_timeout=1.0)
    cluster = Cluster(3, make_paxos_factory(config), seed=5)
    cluster.node(1).crash()
    cluster.node(2).crash()
    cluster.start_all()
    cluster.run(until=5.0)   # proposals stall without a majority
    assert not cluster.service(0).committed
    cluster.node(1).restart(fresh_state=True)
    cluster.node(2).restart(fresh_state=True)
    cluster.run(until=30.0)
    assert cluster.service(0).committed  # retried and committed
    assert AGREEMENT.holds(cluster_view(cluster))


def test_cpu_queue_serializes_proposals():
    cluster = run_paxos(
        "mencius", requests=3,
        processing_delays=(0.4, 0.0, 0.0),
        until=40.0,
    )
    assert AGREEMENT.holds(cluster_view(cluster))
    # The loaded node's commands commit strictly later on average.
    loaded = cluster.service(0).commit_latencies()
    unloaded = cluster.service(1).commit_latencies()
    assert sum(loaded) / len(loaded) > sum(unloaded) / len(unloaded)


def test_proposer_resolver_leaves_every_other_choice_at_its_first_candidate():
    """``make_proposer_resolver`` scores ``"proposer"`` candidates only.

    A batch size or a retry pacing is no node id: scoring one as a
    proposer read a load that does not exist.  Every other label ties,
    so the greedy resolver keeps its first candidate."""
    from repro.choice.choicepoint import ChoicePoint
    from repro.eval import DEFAULT_LOADS, wan_topology
    from repro.runtime import install_crystalball

    config = PaxosConfig(n=5, request_interval=0.5, requests_per_node=4,
                         processing_delays=DEFAULT_LOADS)
    topology = wan_topology(5)
    factory = make_paxos_factory(config)
    cluster = Cluster(5, factory, topology=topology, seed=1)
    runtimes = install_crystalball(cluster, factory, set_resolver=False,
                                   checkpoint_period=0.0, prediction_period=0.0)
    for runtime, node in zip(runtimes, cluster.nodes):
        runtime.network_model.bootstrap_from_topology(topology)
        node.choice_resolver = make_proposer_resolver()
    cluster.start_all()
    cluster.run(until=20.0)
    assert sum(len(s.committed) for s in cluster.services) == 20
    for label, candidates in (("batch-size", [1, 8, 32, 128]),
                              ("retry-pacing", [1.0, 2.0, 4.0])):
        point = ChoicePoint(label=label, candidates=candidates, node_id=4, info={})
        assert make_proposer_resolver().resolve(point, node=cluster.node(4)) == candidates[0]
