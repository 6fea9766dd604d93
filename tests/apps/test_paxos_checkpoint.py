"""Checkpoint round-trips for Paxos replica state.

``PaxosReplica.state_fields`` mixes every container shape the
serializer supports: Command-tuple-keyed dicts (``my_requests``,
``committed``, ``applied``), int-keyed dicts (``promised``, ``chosen``,
``accepted``), deques (``cpu_queue``, ``pending``), nested proposal
dicts, and batch values (tuples of command tuples).
A checkpoint taken from any reachable-shaped state must restore to an
identical state on a fresh replica: same digest, same container types,
same key types.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.apps.paxos import NOOP, PaxosConfig, PaxosReplica

N = 5

commands = st.tuples(st.integers(0, N - 1), st.integers(0, 999))

# A log value: the NOOP filler, a single command, or a batch.
values = st.one_of(
    st.just(NOOP),
    commands,
    st.lists(commands, min_size=1, max_size=4).map(tuple),
)

ballots = st.integers(0, 200)
instances = st.integers(0, 60)
times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def replica_states(draw):
    """Plain-data state in the shapes the replica actually reaches."""
    chosen = draw(st.dictionaries(instances, values, max_size=6))
    accepted = draw(st.dictionaries(
        instances, st.tuples(ballots, values).map(lambda bv: [bv[0], list(bv[1])]),
        max_size=6,
    ))
    proposals = draw(st.dictionaries(
        instances,
        st.tuples(ballots, values, times).map(lambda t: {
            "ballot": t[0], "value": t[1], "proposing": t[1],
            "phase": "accept", "promise_from": [], "accepted_from": [0, 2],
            "best_accepted_ballot": -1, "best_accepted_value": None,
            "started_at": t[2],
        }),
        max_size=3,
    ))
    executed = draw(st.lists(commands, max_size=8, unique=True))
    return {
        "promised": draw(st.dictionaries(instances, ballots, max_size=6)),
        "accepted": accepted,
        "chosen": chosen,
        "next_seq": draw(st.integers(0, 50)),
        "next_own_round": draw(st.integers(0, 50)),
        "proposals": proposals,
        "my_requests": draw(st.dictionaries(commands, times, max_size=6)),
        "committed": draw(st.dictionaries(
            commands, st.tuples(times, times).map(list), max_size=6,
        )),
        "cpu_queue": deque(draw(st.lists(commands, max_size=5))),
        "exec_upto": draw(st.integers(0, 60)),
        "executed": executed,
        "applied": set(executed),
    }


def _install(replica, state):
    for name, value in state.items():
        setattr(replica, name, value)


@given(state=replica_states(), seed=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_checkpoint_roundtrip_base(state, seed):
    config = PaxosConfig(n=N)
    original = PaxosReplica(0, config)
    _install(original, state)
    fresh = PaxosReplica(0, config)
    fresh.restore(original.checkpoint())
    assert fresh.state_digest() == original.state_digest()
    # Container and key types survive the round trip.
    assert isinstance(fresh.cpu_queue, deque)
    assert list(fresh.cpu_queue) == list(original.cpu_queue)
    assert isinstance(fresh.applied, set)
    assert fresh.applied == original.applied
    assert all(isinstance(k, tuple) for k in fresh.my_requests)
    assert all(isinstance(k, tuple) for k in fresh.committed)
    assert all(isinstance(k, int) for k in fresh.promised)
    assert all(isinstance(k, int) for k in fresh.chosen)
    assert all(isinstance(k, int) for k in fresh.accepted)


@given(state=replica_states(),
       pending=st.lists(commands, max_size=6),
       range_state=st.tuples(st.integers(0, 20), st.integers(0, 60),
                             st.booleans()))
@settings(max_examples=40, deadline=None)
def test_checkpoint_roundtrip_batched(state, pending, range_state):
    config = PaxosConfig(n=N)
    original = PaxosReplica(0, config)
    _install(original, state)
    original.pending = deque(pending)
    original.range_round, original.range_from, original.phase1_ok = range_state
    original.range_promises = [1, 3]
    original.range_accepted = {7: [12, ((0, 1), (2, 3))]}
    original.range_promised = {2: [4, 12]}
    original.recent_conflicts = 1.5
    original.max_inst = 41
    fresh = PaxosReplica(0, config)
    fresh.restore(original.checkpoint())
    assert fresh.state_digest() == original.state_digest()
    assert isinstance(fresh.pending, deque)
    assert list(fresh.pending) == list(original.pending)
    assert fresh.range_promised == original.range_promised
    assert fresh.range_accepted == original.range_accepted
    assert fresh.max_inst == 41 and fresh.recent_conflicts == 1.5


def test_checkpoint_is_a_deep_copy():
    """Mutating the live replica never leaks into a taken checkpoint."""
    replica = PaxosReplica(0, PaxosConfig(n=N))
    replica.pending.append((0, 1))
    replica.chosen[3] = ((0, 1), (0, 2))
    replica.applied.add((0, 1))
    snapshot = replica.checkpoint()
    replica.pending.append((0, 2))
    replica.chosen[4] = NOOP
    replica.applied.add((0, 9))
    assert list(snapshot["pending"]) == [(0, 1)]
    assert 4 not in snapshot["chosen"]
    assert (0, 9) not in snapshot["applied"]
