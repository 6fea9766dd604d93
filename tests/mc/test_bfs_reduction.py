"""Sleep sets and the transition memo change how much ``bfs`` builds,
not what it finds.

``legacy_bfs`` is the unreduced search.  On random settled RandTree
worlds and on Paxos contention, with and without drops, bounded by depth
or truncated by the state budget, the reduced search must visit the
same states in the same order, report the same violations with the
same paths and bounds, and take no more transitions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.paxos import AGREEMENT, PaxosConfig, make_paxos_factory
from repro.apps.randtree import (Join, RandTreeConfig, make_exposed_factory,
                                 randtree_properties)
from repro.choice.resolvers import RandomResolver
from repro.mc import (Explorer, InFlightMessage, PendingTimer, SafetyProperty,
                      TimerAction, WorldState, all_nodes, world_from_services)
from repro.statemachine import Cluster

from ..apps.test_paxos_model_checking import make_contention_world
from .conftest import LoopService, Ping, Token, TokenService
from .legacy_bfs import legacy_bfs


def observed(search, explorer, root, max_depth, max_states):
    """``search``'s result, the digest of every state it checked, in
    order, and its violations as (property, world digest, path)."""
    checked = []
    check = explorer.check

    def recording(world):
        checked.append(world.digest())
        return check(world)

    explorer.check = recording
    result = search(explorer, root.clone(), max_depth, max_states)
    violations = [(v.property_name, v.world.digest(), tuple(a.key() for a in v.path))
                  for v in result.violations]
    return result, checked, violations


def assert_same_search(make_explorer, root, max_depth, max_states):
    old, old_checked, old_violations = observed(
        legacy_bfs, make_explorer(), root, max_depth, max_states)
    new, new_checked, new_violations = observed(
        Explorer.bfs, make_explorer(), root, max_depth, max_states)
    assert new_checked == old_checked
    assert (new.states_explored, new.max_depth, new.truncated) == (
        old.states_explored, old.max_depth, old.truncated)
    assert new_violations == old_violations
    assert new.transitions <= old.transitions
    return old, new


@settings(max_examples=12, deadline=None)
@given(n=st.integers(4, 12), seed=st.integers(0, 50),
       settle=st.floats(2.0, 25.0), joiner=st.integers(1, 11),
       max_depth=st.integers(2, 4), max_states=st.sampled_from([60, 400, 1500]))
def test_randtree_search_is_the_unreduced_one(n, seed, settle, joiner, max_depth, max_states):
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(n, factory, seed=seed,
                      resolver_factory=lambda nid: RandomResolver(seed))
    cluster.start_all()
    cluster.run(until=settle)
    root = world_from_services(cluster.services, cluster.nodes, time=cluster.sim.now)
    root.inflight.append(InFlightMessage(joiner % n, 0, Join(joiner=joiner % n)))
    children = {nid: len(state.get("children", ())) for nid, state in root.node_states.items()}
    # Two properties that trip as the join lands, one checked
    # incrementally per node, so violations and their paths compare.
    tripping = [
        all_nodes(lambda nid, state: len(state.get("children", ())) <= children[nid],
                  "no-new-children"),
        SafetyProperty("join-pending", lambda world: not any(
            world.state_of(nid).get("recent_forwards") for nid in world.node_ids)),
    ]
    properties = randtree_properties(config) + tripping
    assert_same_search(lambda: Explorer(factory, properties=properties),
                       root, max_depth, max_states)


@settings(max_examples=6, deadline=None)
@given(drops=st.booleans(), max_depth=st.integers(3, 6),
       max_states=st.sampled_from([40, 300, 1200]))
def test_paxos_contention_search_is_the_unreduced_one(drops, max_depth, max_states):
    factory = make_paxos_factory(PaxosConfig(n=3, requests_per_node=0))
    properties = [
        AGREEMENT,
        all_nodes(lambda nid, state: not state.get("promised"), "nothing-promised"),
    ]
    assert_same_search(
        lambda: Explorer(factory, properties=properties, include_drops=drops),
        make_contention_world(factory), max_depth, max_states)


def test_paxos_contention_at_depth_eight_takes_fewer_transitions():
    factory = make_paxos_factory(PaxosConfig(n=3, requests_per_node=0))
    old, new = assert_same_search(
        lambda: Explorer(factory, properties=[AGREEMENT]),
        make_contention_world(factory), 8, 3000)
    assert new.transitions < old.transitions
    assert new.pruned > 0 and new.reused > 0


# ``max_depth`` at fixed inputs.  The reduced search never queues a state
# at the bound, so the bound enters ``max_depth`` only once a complete
# search found such a state: the unreduced search dequeues that level
# last, and a truncated one returns before it.

def settled_join_world(n=9):
    """A settled RandTree (levels 1 / 10 / 65 / 417 to depth 3 at n=9)
    with one join in flight, and its explorer factory."""
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(n, factory, seed=1,
                      resolver_factory=lambda nid: RandomResolver(1))
    cluster.start_all()
    cluster.run(until=20.0)
    root = world_from_services(cluster.services, cluster.nodes, time=cluster.sim.now)
    root.inflight.append(InFlightMessage(5, 0, Join(joiner=5)))
    return root, lambda: Explorer(factory, properties=randtree_properties(config))


def test_budget_spent_while_finding_the_bound_level():
    root, make_explorer = settled_join_world()
    _, new = assert_same_search(make_explorer, root, 3, 200)
    assert (new.states_explored, new.max_depth, new.truncated) == (200, 2, True)


def test_complete_search_whose_deepest_level_is_the_bound():
    root, make_explorer = settled_join_world()
    _, new = assert_same_search(make_explorer, root, 3, 1500)
    assert (new.states_explored, new.max_depth, new.truncated) == (493, 3, False)


def test_complete_search_that_never_reaches_the_bound():
    # One token, two forwards per node: the space ends at depth 7.
    factory = lambda node_id: TokenService(node_id, n=3)
    states = {i: factory(i).checkpoint() for i in range(3)}
    root = WorldState(node_states=states, inflight=[InFlightMessage(0, 1, Token(value=1))])
    _, new = assert_same_search(lambda: Explorer(factory), root, 8, 10_000)
    assert (new.states_explored, new.max_depth, new.truncated) == (63, 7, False)


# A timer step that keeps its node's state dict, sends and cancels
# nothing and re-arms only the timer it fired, under the same key, is
# the identity on the world: the search counts it and builds nothing.
# Every other case breaks one of those conditions and must be built.
# Each entry: node 0's mode, node 0's extra pending timers, whether the
# step is a self-loop.
SELF_LOOP_CASES = {
    "same-key re-arm": ("loop", (), None, True),
    "re-arm with another payload": ("payload", (), None, False),
    "re-arm with an equal but differently typed payload": ("bool", (), 1, False),
    "re-arm and cancel another pending timer": ("cancel", ("other",), None, False),
    "re-arm and send": ("send", (), None, False),
    "re-arm from a changed state": ("count", (), None, False),
    "two pending timers of one (node, name)": ("loop", ("tick",), None, False),
}


def loop_world(case, n, inflight=()):
    """``n`` :class:`LoopService` nodes, each with a pending ``tick``,
    node 0 set up as ``case`` says (its mode, extra timers and first
    ``tick`` payload), and its factory."""
    mode, extra, payload, _ = SELF_LOOP_CASES[case]
    factory = lambda nid: LoopService(nid, n=n, mode=mode if nid == 0 else "loop")
    timers = [PendingTimer(nid, "tick", payload if nid == 0 else None, 1.0)
              for nid in range(n)]
    timers += [PendingTimer(0, name, None, 1.0) for name in extra]
    states = {nid: factory(nid).checkpoint() for nid in range(n)}
    return WorldState(node_states=states, inflight=inflight, timers=timers), factory


@pytest.mark.parametrize("case", SELF_LOOP_CASES)
def test_search_past_self_loops_is_the_unreduced_one(case):
    root, factory = loop_world(case, 3, [InFlightMessage(1, 2, Ping(hops=2))])
    assert_same_search(lambda: Explorer(factory), root, 4, 2000)


@pytest.mark.parametrize("case", SELF_LOOP_CASES)
def test_self_loop_is_counted_not_built(case, monkeypatch):
    root, factory = loop_world(case, 1)
    old, _ = assert_same_search(lambda: Explorer(factory), root, 1, 100)
    evolved = []
    evolve = WorldState.evolve

    def counting(world, *args, **kwargs):
        evolved.append(world)
        return evolve(world, *args, **kwargs)

    monkeypatch.setattr(WorldState, "evolve", counting)
    result = Explorer(factory).bfs(root.clone(), max_depth=1)
    assert result.transitions == old.transitions
    if SELF_LOOP_CASES[case][3]:
        assert (result.transitions, result.states_explored, evolved) == (1, 1, [])
    else:
        assert len(evolved) == result.transitions


def test_successors_of_a_self_loop_build_the_later_world():
    # Consequence prediction reads a successor's time and depth, so
    # ``successors`` builds the world a self-loop leads to.
    root, factory = loop_world("same-key re-arm", 1)
    (successor,) = Explorer(factory).successors(root, TimerAction(0, "tick"))
    assert successor is not root
    assert (successor.time, successor.depth) == (root.time + 1.0, root.depth + 1)
    assert successor.digest() == root.digest()


# Node 0's ``clock`` tick reads the clock and keeps its state dict until
# the world time passes the threshold.  The other nodes' ``count`` ticks
# move the world a second on each, and a ping chain 0.05 s a hop, while
# node 0 keeps its dict, so one (node, state dict, timer) fires at
# several world times, kept at some and changed at others.  The memo may
# serve such a step only at the time it ran at, and only one that kept
# its state.

def clock_world(threshold, inflight=()):
    """Three :class:`LoopService` nodes, node 0 in ``clock`` mode and the
    others in ``count`` mode, each with a pending ``tick``, and their
    factory."""
    factory = lambda nid: LoopService(nid, mode="clock" if nid == 0 else "count",
                                      threshold=threshold)
    timers = [PendingTimer(nid, "tick", None, 1.0) for nid in range(3)]
    states = {nid: factory(nid).checkpoint() for nid in range(3)}
    return WorldState(node_states=states, inflight=list(inflight), timers=timers), factory


def recording_clock_reads(factory, runs):
    """An explorer factory; each explorer it makes appends a list to
    ``runs`` and records there ``(state dict, now, whether the state was
    kept)`` for every sandboxed run that read the clock."""
    def make_explorer():
        explorer = Explorer(factory)
        step = explorer.sandbox_step
        own = []
        runs.append(own)

        def recording(node_id, state, event, now, script):
            checkpoint, effects, read = step(node_id, state, event, now, script)
            if read:
                own.append((state, now, checkpoint is state))
            return checkpoint, effects, read

        explorer.sandbox_step = recording
        return explorer
    return make_explorer


@pytest.mark.parametrize("threshold", [0.5, 1.02, 1.5, 2.5])
def test_search_past_clock_reading_ticks_is_the_unreduced_one(threshold):
    root, factory = clock_world(threshold, [InFlightMessage(1, 2, Ping(hops=2))])
    runs = []
    assert_same_search(recording_clock_reads(factory, runs), root, 5, 5000)
    # The unreduced search ran a tick from one state dict at two world
    # times, keeping the state at one and changing it at the other.
    outcomes = {}
    for state, now, kept in runs[0]:
        outcomes.setdefault(id(state), {})[now] = kept
    assert any(len(set(by_time.values())) == 2 for by_time in outcomes.values())


def test_clock_reading_step_that_changed_its_state_runs_each_time():
    # Past the threshold, node 0's tick changes its state.  It fires
    # from the root's state dict at time 0.0 (kept), then at time 1.0
    # after node 1's tick and again after node 2's: two worlds at one
    # time, and the step runs in both.
    root, factory = clock_world(0.5)
    runs = []
    _, new = assert_same_search(recording_clock_reads(factory, runs), root, 2, 100)
    own = root.state_of(0)
    assert [(now, kept) for state, now, kept in runs[1] if state is own] == [
        (0.0, True), (1.0, False), (1.0, False)]
    assert new.reused == 1   # node 2's clock-free tick, after node 1's
