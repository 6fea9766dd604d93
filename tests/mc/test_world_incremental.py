"""The incremental-digest invariant under randomized evolve sequences.

``WorldState.digest()`` is an additive multiset hash maintained
incrementally: a successor inherits its parent's sum adjusted by the
parts that left and arrived, and freezes at most the node state it
changed; ``recompute_digest()`` rebuilds the same digest from scratch
with every cache empty.  These tests drive randomized action sequences
— deliver-like state changes, sends, receives, timer arms/fires, drops,
down-set changes — digesting worlds in arbitrary interleavings, and
assert the two always agree, that the digest tells apart exactly the
worlds the sort-and-hash digest it replaced told apart, and that it
pays for the delta only.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.mc.world as world_module
from repro.mc import ConsequencePredictor, Explorer, InFlightMessage, PendingTimer, WorldState

from .conftest import Token
from .legacy_world_digest import legacy_world_digest


def _initial_world(rng: random.Random) -> WorldState:
    n = rng.randint(2, 5)
    states = {
        nid: {"total": rng.randint(0, 5), "forwards": rng.randint(0, 2)}
        for nid in range(n)
    }
    inflight = [
        InFlightMessage(rng.randrange(n), rng.randrange(n), Token(value=rng.randint(0, 3)))
        for _ in range(rng.randint(0, 4))
    ]
    timers = [
        PendingTimer(rng.randrange(n), name, None, 1.0)
        for name in ("kick", "tick")[: rng.randint(0, 2)]
    ]
    return WorldState(node_states=states, inflight=inflight, timers=timers)


def _random_step(rng: random.Random, world: WorldState) -> WorldState:
    n = len(world.node_states)
    op = rng.choice(("state", "send", "recv", "arm", "fire", "down", "mixed"))
    if op == "state":
        nid = rng.randrange(n)
        return world.evolve(
            node_id=nid,
            new_state={"total": rng.randint(0, 99), "forwards": rng.randint(0, 9)},
        )
    if op == "send":
        msg = InFlightMessage(rng.randrange(n), rng.randrange(n), Token(value=rng.randint(0, 3)))
        return world.evolve(add_inflight=[msg])
    if op == "recv" and world.inflight:
        victim = rng.choice(world.inflight)
        nid = victim.dst if victim.dst < n else 0
        return world.evolve(
            node_id=nid,
            new_state={"total": rng.randint(0, 99), "forwards": 0},
            remove_inflight=victim,
        )
    if op == "arm":
        return world.evolve(
            add_timers=[PendingTimer(rng.randrange(n), rng.choice("abc"), None, 0.5)]
        )
    if op == "fire" and world.timers:
        timer = rng.choice(world.timers)
        return world.evolve(
            node_id=timer.node if timer.node < n else 0,
            new_state={"total": rng.randint(0, 99), "forwards": 1},
            remove_timers=[(timer.node, timer.name)],
        )
    if op == "down":
        return world.with_down(rng.sample(range(n), rng.randint(0, n - 1)))
    # mixed: state change + send + re-arm in one evolve
    nid = rng.randrange(n)
    return world.evolve(
        node_id=nid,
        new_state={"total": rng.randint(0, 99), "forwards": 2},
        add_inflight=[InFlightMessage(nid, (nid + 1) % n, Token(value=7))],
        add_timers=[PendingTimer(nid, "kick", None, 1.0)],
    )


@given(seed=st.integers(0, 10_000), digest_mask=st.integers(0, 2**16 - 1))
@settings(max_examples=60, deadline=None)
def test_incremental_digest_matches_full_recompute(seed, digest_mask):
    rng = random.Random(seed)
    world = _initial_world(rng)
    chain = [world]
    for step in range(14):
        world = _random_step(rng, world)
        chain.append(world)
        if digest_mask >> step & 1:
            # Interleave digesting mid-chain: exercises both sums derived
            # from a digested parent and sums built from scratch.
            world.digest()
    for w in chain:
        assert w.digest() == w.recompute_digest()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_digest_independent_of_computation_order(seed):
    """Digesting a chain leaf-first and root-first yields the same values."""
    rng = random.Random(seed)
    root = _initial_world(rng)
    chain = [root]
    for _ in range(10):
        chain.append(_random_step(rng, chain[-1]))

    rng2 = random.Random(seed)
    root2 = _initial_world(rng2)
    chain2 = [root2]
    for _ in range(10):
        chain2.append(_random_step(rng2, chain2[-1]))

    forward = [w.digest() for w in chain]
    backward = [w.digest() for w in reversed(chain2)][::-1]
    assert forward == backward


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_same_equality_classes_as_legacy_digest(seed):
    """Never merges two worlds the old digest told apart, never splits
    two it merged."""
    worlds = []
    for replay in range(2):  # the same chain twice: equal worlds, distinct objects
        rng = random.Random(seed)
        world = _initial_world(rng)
        worlds.append(world)
        for _ in range(12):
            world = _random_step(rng, world)
            worlds.append(world)
    # ... and event order, which neither digest may see.
    shuffled = worlds[-1].clone()
    shuffled.inflight.reverse()
    shuffled.timers.reverse()
    worlds.append(shuffled)
    new = [w.digest() for w in worlds]
    old = [legacy_world_digest(w) for w in worlds]
    assert len(set(new)) < len(worlds)  # there are classes to merge
    assert len(set(zip(new, old))) == len(set(new)) == len(set(old))


def test_multiplicity_counts():
    states = {0: {"x": 1}, 1: {"x": 2}}
    m = InFlightMessage(0, 1, Token(value=1))
    digests = {
        WorldState(node_states=states, inflight=copies * [m]).digest()
        for copies in range(4)
    }
    assert len(digests) == 4  # an XOR would fold [m, m] onto []
    t = PendingTimer(0, "kick", None, 1.0)
    assert (WorldState(node_states=states, timers=[t, t]).digest()
            != WorldState(node_states=states).digest())


def test_parts_are_domain_separated():
    a, b = {"x": 1}, {"x": 2}
    # Which node holds a state is part of the world.
    assert (WorldState(node_states={0: a, 1: b}).digest()
            != WorldState(node_states={0: b, 1: a}).digest())
    # A message and a timer with equal fields are different events.
    as_message = WorldState(node_states={0: a}, inflight=[InFlightMessage(0, "kick", None)])
    as_timer = WorldState(node_states={0: a}, timers=[PendingTimer(0, "kick", None)])
    assert as_message.inflight[0].key() == as_timer.timers[0].key()
    assert as_message.digest() != as_timer.digest()
    # The down-set is not a node state or an event either.
    world = WorldState(node_states={0: a, 1: b})
    assert world.with_down({1}).digest() != world.digest()
    assert world.with_down({1}).with_down(()).digest() == world.digest()


@pytest.fixture
def state_freezes(monkeypatch):
    """Node states frozen through ``repro.mc.world.freeze`` (messages
    and timer payloads are frozen by it too; states are the dicts)."""
    frozen = []
    freeze = world_module.freeze

    def counting(value):
        if isinstance(value, dict):
            frozen.append(value)
        return freeze(value)

    monkeypatch.setattr(world_module, "freeze", counting)
    return frozen


def _token_world(token_factory):
    return WorldState(
        node_states={i: token_factory(i).checkpoint() for i in range(3)},
        inflight=[InFlightMessage(0, 1, Token(value=1)), InFlightMessage(1, 2, Token(value=1))],
        timers=[PendingTimer(0, "kick", None, 1.0)],
    )


def test_bfs_successor_freezes_only_its_changed_node(token_factory, state_freezes):
    explorer = Explorer(token_factory)
    root = _token_world(token_factory)
    root.digest()
    assert len(state_freezes) == 3
    transitions = 0
    for action in explorer.enabled_actions(root):
        for successor in explorer.successors(root, action):
            before = len(state_freezes)
            assert successor.digest() == successor.recompute_digest()
            # recompute_digest() freezes all three again; digest() froze
            # the one state the action changed.
            assert len(state_freezes) - before == 1 + 3
            (changed,) = [nid for nid in root.node_states
                          if successor.state_of(nid) is not root.state_of(nid)]
            assert state_freezes[before] is successor.state_of(changed)
            transitions += 1
    assert transitions > 3
    del state_freezes[:]
    result = explorer.bfs(root, max_depth=3)
    assert result.transitions >= len(state_freezes) > 0


def test_unchanged_node_evolve_freezes_nothing(state_freezes):
    world = WorldState(node_states={0: {"x": 1}, 1: {"x": 2}, 2: {"x": 3}})
    world.digest()
    del state_freezes[:]
    sent = world.evolve(add_inflight=[InFlightMessage(0, 1, Token(value=1))])
    armed = sent.evolve(add_timers=[PendingTimer(1, "kick", None, 1.0)])
    assert len({world.digest(), sent.digest(), armed.digest(),
                armed.with_down({2}).digest()}) == 4
    assert state_freezes == []


def test_siblings_freeze_a_shared_state_once(state_freezes):
    """A state changed in an undigested ancestor is frozen by whichever
    descendant digests first, for all of them."""
    root = WorldState(node_states={0: {"x": 1}, 1: {"x": 2}})
    mid = root.evolve(node_id=0, new_state={"x": 5})
    left = mid.evolve(add_inflight=[InFlightMessage(0, 1, Token(value=1))])
    right = mid.evolve(add_inflight=[InFlightMessage(1, 0, Token(value=2))])
    left.digest()
    assert len(state_freezes) == 2
    right.digest()
    mid.digest()
    assert len(state_freezes) == 2
    assert right.digest() == right.recompute_digest()


def test_prediction_without_memo_freezes_no_node_state(token_factory, state_freezes):
    predictor = ConsequencePredictor(Explorer(token_factory), chain_depth=3, budget=500)
    report = predictor.predict(_token_world(token_factory))
    assert report.total_states > 3
    assert state_freezes == []
