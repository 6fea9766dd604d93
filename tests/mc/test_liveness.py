"""Bounded liveness (progress reachability) checking."""

from repro.mc import (
    BoundedLivenessChecker,
    Explorer,
    InFlightMessage,
    LivenessProperty,
    PendingTimer,
    WorldState,
)

from .conftest import LoopService, Ping, Token, TokenService


def world_with(factory, inflight=(), n=3):
    states = {i: factory(i).checkpoint() for i in range(n)}
    return WorldState(node_states=states, inflight=inflight)


def delivered_somewhere(world):
    return any(world.state_of(n)["total"] > 0 for n in world.node_ids)


def node2_received(world):
    return world.state_of(2)["total"] > 0


def test_progress_reachable_with_witness(token_factory):
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    checker = BoundedLivenessChecker(Explorer(token_factory), max_depth=3)
    result = checker.check(world, LivenessProperty("delivered", delivered_somewhere))
    assert result.reachable
    assert len(result.witness_path) == 1  # one delivery suffices
    assert result.witness_world is not None


def test_already_satisfied_immediate():
    factory = lambda nid: TokenService(nid, n=3)
    service = factory(1)
    service.total = 5
    states = {i: (service if i == 1 else factory(i)).checkpoint() for i in range(3)}
    world = WorldState(node_states=states)
    checker = BoundedLivenessChecker(Explorer(factory))
    result = checker.check(world, LivenessProperty("delivered", delivered_somewhere))
    assert result.reachable
    assert result.witness_path == ()
    assert result.states_explored == 1


def test_unreachable_progress_is_violation(token_factory):
    # Empty world: nothing in flight, no timers — no action can ever
    # deliver a token, so progress is (exhaustively) unreachable.
    world = world_with(token_factory)
    checker = BoundedLivenessChecker(Explorer(token_factory), max_depth=4)
    result = checker.check(world, LivenessProperty("delivered", delivered_somewhere))
    assert not result.reachable
    assert result.violated  # exhaustive, not truncated


def test_truncated_search_is_not_a_violation(token_factory):
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    checker = BoundedLivenessChecker(Explorer(token_factory), max_depth=6, max_states=2)
    result = checker.check(world, LivenessProperty("node2", node2_received))
    if not result.reachable:
        assert result.truncated
        assert not result.violated


def test_deeper_progress_needs_depth(token_factory):
    # Reaching node 2 requires a forward hop: depth 1 cannot, depth 3 can.
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    shallow = BoundedLivenessChecker(Explorer(token_factory), max_depth=1)
    deep = BoundedLivenessChecker(Explorer(token_factory), max_depth=3)
    prop = LivenessProperty("node2", node2_received)
    assert not shallow.check(world, prop).reachable
    assert deep.check(world, prop).reachable


def test_progress_only_at_the_bound_is_witnessed(token_factory):
    # Node 2 is first reached two hops in, exactly at max_depth=2: a
    # state at the bound is never expanded, but it is still seen.
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    checker = BoundedLivenessChecker(Explorer(token_factory), max_depth=2)
    result = checker.check(world, LivenessProperty("node2", node2_received))
    assert result.reachable and not result.truncated
    assert [a.describe() for a in result.witness_path] == [
        "deliver Token 0->1 via on_token", "deliver Token 1->2 via on_token"]
    assert result.witness_world.depth == 2
    assert result.states_explored == 6


def test_check_all_runs_each_property(token_factory):
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    checker = BoundedLivenessChecker(Explorer(token_factory), max_depth=3)
    results = [checker.check(world, prop) for prop in (
        LivenessProperty("delivered", delivered_somewhere),
        LivenessProperty("node2", node2_received),
    )]
    assert [r.property_name for r in results] == ["delivered", "node2"]


def test_progress_past_self_looping_timers_is_witnessed_as_unreduced():
    # Nodes 1 and 2 tick without changing anything, node 0 counts its
    # ticks, and the ping comes back to node 0 three hops in.  The
    # search counts the self-loops without building them; the witness
    # and the states explored before it are the unreduced search's.
    factory = lambda nid: LoopService(nid, n=3, mode="count" if nid == 0 else "loop")
    states = {nid: factory(nid).checkpoint() for nid in range(3)}
    world = WorldState(node_states=states, inflight=[InFlightMessage(0, 1, Ping(hops=2))],
                       timers=[PendingTimer(nid, "tick", None, 1.0) for nid in range(3)])
    checker = BoundedLivenessChecker(Explorer(factory), max_depth=4)
    result = checker.check(world, LivenessProperty(
        "back-at-0", lambda w: w.state_of(0)["pings"] > 0))
    assert result.reachable and not result.truncated
    assert [a.describe() for a in result.witness_path] == [
        "deliver Ping 0->1 via on_ping", "deliver Ping 1->2 via on_ping",
        "deliver Ping 2->0 via on_ping"]
    assert result.states_explored == 7
