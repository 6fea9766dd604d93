"""Sleep sets and the transition memo change how much ``bfs`` builds,
not what it finds.

``legacy_bfs`` is the unreduced search.  On random settled RandTree
worlds and on Paxos contention, with and without drops, bounded by depth
or truncated by the state budget, the reduced search must visit the
same states in the same order, report the same violations with the
same paths and bounds, and take no more transitions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.paxos import AGREEMENT, PaxosConfig, make_paxos_factory
from repro.apps.randtree import (Join, RandTreeConfig, make_exposed_factory,
                                 randtree_properties)
from repro.choice.resolvers import RandomResolver
from repro.mc import (Explorer, InFlightMessage, SafetyProperty, all_nodes,
                      world_from_services)
from repro.statemachine import Cluster

from ..apps.test_paxos_model_checking import make_contention_world
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
