"""Explorer: enabled actions, successors, choice branching, BFS."""

from dataclasses import dataclass

import pytest

from repro.mc import (
    DeliverAction,
    DropAction,
    ExplorationError,
    Explorer,
    InFlightMessage,
    PendingTimer,
    SafetyProperty,
    TimerAction,
    WorldState,
)
from repro.model import NetworkModel
from repro.net import full_mesh
from repro.statemachine import Message, Service, msg_handler, timer_handler

from .conftest import LoopService, Token, TokenService
from .legacy_bfs import legacy_bfs


def world_with(factory, inflight=(), timers=(), down=(), n=3):
    states = {i: factory(i).checkpoint() for i in range(n)}
    return WorldState(node_states=states, inflight=inflight, timers=timers, down=down)


def test_enabled_deliveries_per_handler(token_factory):
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    explorer = Explorer(token_factory)
    actions = explorer.enabled_actions(world)
    deliveries = [a for a in actions if isinstance(a, DeliverAction)]
    assert len(deliveries) == 1
    assert deliveries[0].handler == "on_token"


def test_duplicate_inflight_explored_once(token_factory):
    message = InFlightMessage(0, 1, Token(value=1))
    world = world_with(token_factory, inflight=[message, message])
    actions = Explorer(token_factory).enabled_actions(world)
    assert len([a for a in actions if isinstance(a, DeliverAction)]) == 1


def test_down_node_not_delivered(token_factory):
    world = world_with(
        token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))], down={1},
    )
    assert Explorer(token_factory).enabled_actions(world) == []


def test_timer_actions_enabled(token_factory):
    world = world_with(token_factory, timers=[PendingTimer(2, "kick", None, 1.0)])
    actions = Explorer(token_factory).enabled_actions(world)
    assert actions == [TimerAction(node=2, name="kick", payload=None)]


def test_worlds_sharing_a_timer_share_its_action(token_factory):
    world = world_with(token_factory, timers=[PendingTimer(0, "kick", None, 1.0),
                                              PendingTimer(2, "kick", (1, [2]), 1.0)])
    explorer = Explorer(token_factory)
    first, kept = explorer.enabled_actions(world)
    for successor in explorer.successors(world, first):
        (timer,) = [a for a in explorer.enabled_actions(successor)
                    if isinstance(a, TimerAction)]
        assert timer is kept
    assert kept.key() == TimerAction(2, "kick", (1, [2])).key()


def test_drops_included_when_enabled(token_factory):
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    explorer = Explorer(token_factory, include_drops=True)
    actions = explorer.enabled_actions(world)
    assert any(isinstance(a, DropAction) for a in actions)


def test_successor_applies_handler_effects(token_factory):
    message = InFlightMessage(0, 1, Token(value=1))
    world = world_with(token_factory, inflight=[message])
    explorer = Explorer(token_factory)
    action = explorer.enabled_actions(world)[0]
    successors = explorer.successors(world, action)
    # The handler contains a 2-candidate choice of forward target.
    assert len(successors) == 2
    for successor in successors:
        assert successor.state_of(1)["total"] == 1
        assert len(successor.inflight) == 1  # forwarded token
    targets = {successor.inflight[0].dst for successor in successors}
    assert targets == {0, 2}


def test_drop_successor_removes_message(token_factory):
    message = InFlightMessage(0, 1, Token(value=1))
    world = world_with(token_factory, inflight=[message])
    explorer = Explorer(token_factory, include_drops=True)
    drop = [a for a in explorer.enabled_actions(world) if isinstance(a, DropAction)][0]
    successor, = explorer.successors(world, drop)
    assert successor.inflight == []
    assert successor.state_of(1)["total"] == 0


def test_timer_successor_consumes_timer(token_factory):
    world = world_with(token_factory, timers=[PendingTimer(0, "kick", None, 1.0)])
    explorer = Explorer(token_factory)
    action = explorer.enabled_actions(world)[0]
    successors = explorer.successors(world, action)
    for successor in successors:
        assert successor.timers == []
        assert len(successor.inflight) == 1


@pytest.mark.parametrize("action", [
    DeliverAction(0, 1, Token(value=1), "on_token"),
    DropAction(0, 1, Token(value=1)),
    TimerAction(0, "kick"),
], ids=["deliver", "drop", "timer"])
def test_a_stale_action_is_rejected_before_any_handler_runs(token_factory, action):
    # The world holds a token for node 2 and no timer: nothing the
    # actions consume.
    world = world_with(token_factory, inflight=[InFlightMessage(0, 2, Token(value=1))])
    explorer = Explorer(token_factory, include_drops=True)
    ran = []
    explorer.sandbox_step = lambda *args: ran.append(args)
    with pytest.raises(ExplorationError, match="not in flight|not pending"):
        explorer.successors(world, action)
    assert ran == []


class Rewriter(Service):
    """Timers that rewrite a field as an equal value that freezes
    differently, and one that reads every field and writes none."""

    state_fields = ("count", "level", "items")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.count = 1
        self.level = 0.0
        self.items = [1, 2]

    @timer_handler("as-float")
    def on_as_float(self, payload) -> None:
        self.count = float(self.count)

    @timer_handler("negate")
    def on_negate(self, payload) -> None:
        self.level = -self.level

    @timer_handler("read")
    def on_read(self, payload) -> None:
        self.send(0, Token(value=self.count + int(self.level) + sum(self.items)))


def _rewriter_step(name):
    world = WorldState({0: Rewriter(0).checkpoint(), 1: Rewriter(1).checkpoint()},
                       timers=[PendingTimer(0, name, None, 1.0)])
    world.digest()
    (successor,) = Explorer(Rewriter).successors(world, TimerAction(0, name))
    assert successor.digest() == successor.recompute_digest()
    return world, successor


@pytest.mark.parametrize("name, field, value", [
    ("as-float", "count", 1.0), ("negate", "level", -0.0),
])
def test_an_equal_rewrite_that_freezes_differently_is_a_new_state(name, field, value):
    world, successor = _rewriter_step(name)
    state = successor.state_of(0)
    assert state is not world.state_of(0)
    assert repr(state[field]) == repr(value)
    assert successor._cells[0] is not world._cells[0]
    assert successor._changed_nodes == {0}


def test_a_step_that_writes_nothing_keeps_the_parents_state_and_cell():
    world, successor = _rewriter_step("read")
    assert successor.inflight[0].msg == Token(value=4)
    assert successor.state_of(0) is world.state_of(0)
    assert successor._cells[0] is world._cells[0]
    assert successor._changed_nodes == set()


def test_network_model_weights_time(token_factory):
    model = NetworkModel()
    model.bootstrap_from_topology(full_mesh(3, latency=2.5, bandwidth=1e12))
    explorer = Explorer(token_factory, network_model=model)
    message = InFlightMessage(0, 1, Token(value=1))
    world = world_with(token_factory, inflight=[message])
    action = explorer.enabled_actions(world)[0]
    successor = explorer.successors(world, action)[0]
    assert successor.time == pytest.approx(2.5, abs=0.01)


def test_bfs_finds_violation(token_factory):
    # Violated once any node's total reaches 1.
    prop = SafetyProperty(
        "never-receives",
        lambda w: all(w.state_of(n)["total"] == 0 for n in w.node_ids),
    )
    explorer = Explorer(token_factory, properties=[prop])
    message = InFlightMessage(0, 1, Token(value=1))
    world = world_with(token_factory, inflight=[message])
    result = explorer.bfs(world, max_depth=2, max_states=100)
    assert result.found_violation
    violation = result.violations[0]
    assert violation.property_name == "never-receives"
    assert isinstance(violation.path[0], DeliverAction)


def test_bfs_dedups_states():
    # Two commuting deliveries (no forwarding): A-then-B and B-then-A
    # reach the same final world, which must be visited once.
    factory = lambda nid: TokenService(nid, n=3, cap=0)
    world = world_with(
        factory,
        inflight=[InFlightMessage(0, 1, Token(value=1)),
                  InFlightMessage(0, 2, Token(value=1))],
    )
    explorer = Explorer(factory)
    result = explorer.bfs(world, max_depth=3, max_states=5000)
    # Diamond: root + 2 intermediates + 1 shared final = 4 states, and
    # 3 transitions: the deliveries act on different nodes, so after
    # B the already-taken A is asleep and the final state is built once.
    assert result.states_explored == 4
    assert result.transitions == 3
    assert (result.pruned, result.reused) == (1, 1)


@dataclass
class Stamp(Message):
    """A message whose handler may read the clock."""


class StampService(Service):
    """Counts stamps; nodes in ``clocked`` read the clock on each, and
    keep the reading when ``keep``."""

    state_fields = ("count", "stamped_at")

    def __init__(self, node_id, clocked=(), keep=False):
        super().__init__(node_id)
        self.clocked = clocked
        self.keep = keep
        self.count = 0
        self.stamped_at = None

    @msg_handler(Stamp)
    def on_stamp(self, src, msg):
        self.count += 1
        if self.node_id in self.clocked:
            now = self.now()
            if self.keep:
                self.stamped_at = now


def stamp_world(inflight, clocked=(), keep=False, n=3):
    factory = lambda nid: StampService(nid, clocked=clocked, keep=keep)
    return factory, world_with(factory, inflight=[InFlightMessage(src, dst, Stamp())
                                                  for src, dst in inflight], n=n)


def stamp_bfs(inflight, clocked=(), keep=False, n=3):
    factory, world = stamp_world(inflight, clocked, keep, n)
    return Explorer(factory).bfs(world, max_depth=3, max_states=5000)


def test_bfs_keeps_both_orders_when_a_handler_reads_the_clock():
    # The diamond of test_bfs_dedups_states, but node 1's handler calls
    # now(): the steps are dependent, so nothing is asleep.
    result = stamp_bfs([(0, 1), (0, 2)], clocked={1})
    assert (result.states_explored, result.transitions, result.pruned) == (4, 4, 0)


def test_bfs_keeps_both_orders_at_one_node():
    result = stamp_bfs([(0, 1), (2, 1)])
    assert (result.states_explored, result.transitions, result.pruned) == (4, 4, 0)


def test_bfs_never_prunes_drops():
    # Sleep sets skip deliveries here, and the reduced search still
    # takes every drop the unreduced one takes.
    factory, world = stamp_world([(0, 1), (0, 2)])
    drops, results = [], []
    for search in (legacy_bfs, Explorer.bfs):
        explorer = Explorer(factory, include_drops=True)

        def counting(w, action, successors=explorer.successors):
            if isinstance(action, DropAction):
                drops[-1] += 1
            return successors(w, action)

        explorer.successors = counting
        drops.append(0)
        results.append(search(explorer, world.clone(), 3, 5000))
    oracle, reduced = results
    assert reduced.pruned > 0
    assert drops[0] == drops[1] > 0
    assert reduced.states_explored == oracle.states_explored


def test_memo_serves_a_clock_reading_handler_only_at_the_same_world_time():
    # Node 1 keeps its clock reading: delivering to it at the root and
    # after the delivery to node 2 starts from the same state dict at
    # two world times, and must give two different final states.  The
    # memo serves a clock-reading step only at the world time it ran at.
    result = stamp_bfs([(0, 1), (0, 2)], clocked={1}, keep=True)
    assert (result.states_explored, result.transitions, result.pruned) == (5, 4, 0)
    assert result.reused == 1   # node 2's clock-free step, after node 1's


def test_memo_serves_a_clock_reading_handler_again_at_the_same_world_time():
    # Node 0's tick reads the clock and keeps its state before 1.5 s.
    # Node 1's tick and node 2's each take the world from time 0.0 to
    # 1.0 and leave node 0's state dict alone, so node 0's tick fires
    # from one state dict at one time in both: it runs once and is
    # served once.  A clock-reading step stays dependent, so nothing
    # about pruning moves.
    factory = lambda nid: LoopService(nid, mode="clock" if nid == 0 else "count",
                                      threshold=1.5)
    world = world_with(factory, timers=[PendingTimer(nid, "tick", None, 1.0)
                                        for nid in range(3)])
    explorer = Explorer(factory)
    step, times = explorer.sandbox_step, []

    def recording(node_id, state, event, now, script):
        if node_id == 0:
            times.append(now)
        return step(node_id, state, event, now, script)

    explorer.sandbox_step = recording
    result = explorer.bfs(world, max_depth=2)
    assert times == [0.0, 1.0]   # not again at 1.0 after node 2's tick
    assert (result.states_explored, result.transitions, result.pruned) == (6, 8, 1)
    # Node 0's tick after node 2's, and node 2's clock-free tick after
    # node 1's.
    assert result.reused == 2


def test_state_found_again_keeps_only_what_every_way_in_put_to_sleep():
    # Steps z (node 3), k (node 2, reads the clock) and a (node 1).  The
    # world after k and a is found first from k's world, with z asleep
    # (taken there before a), then from a's world through the
    # clock-reading k, with nothing asleep.  Only what every way in put
    # to sleep stays asleep, so z is taken at that world.
    result = stamp_bfs([(0, 3), (0, 2), (0, 1)], clocked={2}, n=4)
    assert (result.states_explored, result.transitions) == (8, 11)
    assert result.pruned == 1   # z at a's world, asleep from the root


def test_bfs_respects_state_budget(token_factory):
    world = world_with(
        token_factory,
        timers=[PendingTimer(i, "kick", None, 1.0) for i in range(3)],
    )
    explorer = Explorer(token_factory)
    result = explorer.bfs(world, max_depth=6, max_states=10)
    assert result.truncated
    assert result.states_explored <= 10


def test_bfs_checks_root_state(token_factory):
    prop = SafetyProperty("never", lambda w: False)
    explorer = Explorer(token_factory, properties=[prop])
    world = world_with(token_factory)
    result = explorer.bfs(world, max_depth=1, max_states=10)
    assert result.violations[0].path == ()
