"""RandTree tree analysis and safety properties."""

from repro.apps.randtree import (
    RandTreeConfig,
    consistent_edges,
    make_balance_objective,
    make_exposed_factory,
    max_tree_depth,
    randtree_properties,
    tree_depths,
    unattached_nodes,
)
from repro.apps.randtree.common import total_path_length
from repro.mc import Explorer, WorldState


def node_state(joined=True, parent=None, children=(), depth=0):
    return {
        "joined": joined, "parent": parent, "children": list(children),
        "depth": depth, "child_last_seen": {}, "hb_missed": 0,
        "siblings": [], "grandparent": None,
    }


def small_tree():
    #      0
    #     / \
    #    1   2
    #   /
    #  3
    return {
        0: node_state(parent=None, children=[1, 2], depth=1),
        1: node_state(parent=0, children=[3], depth=2),
        2: node_state(parent=0, children=[], depth=2),
        3: node_state(parent=1, children=[], depth=3),
    }


def test_tree_depths_bfs():
    depths = tree_depths(small_tree(), root=0)
    assert depths == {0: 1, 1: 2, 2: 2, 3: 3}


def test_max_tree_depth():
    assert max_tree_depth(small_tree(), root=0) == 3


def test_unknown_root_gives_zero_depth():
    assert max_tree_depth({}, root=0) == 0


def test_inconsistent_edge_excluded():
    states = small_tree()
    states[3]["parent"] = 99  # child disagrees: edge 1->3 inconsistent
    assert 3 not in tree_depths(states, root=0)


def test_unknown_child_included_optimistically():
    states = small_tree()
    del states[3]  # no checkpoint for node 3
    assert tree_depths(states, root=0)[3] == 3


def test_unjoined_node_has_no_edges():
    states = small_tree()
    states[1]["joined"] = False
    edges = consistent_edges(states, root=0)
    assert 1 not in edges
    # 0 -> 1 edge also dropped because the child is not joined.
    assert edges[0] == [2]


def test_unattached_nodes():
    states = small_tree()
    states[3]["parent"] = 99
    assert unattached_nodes(states, root=0) == {3}


def test_total_path_length():
    assert total_path_length(small_tree(), root=0) == 1 + 2 + 2 + 3


def test_balance_objective_prefers_shallower():
    config = RandTreeConfig()
    objective = make_balance_objective(config)
    deep = dict(small_tree())
    deep[4] = node_state(parent=3, children=[], depth=4)
    deep[3]["children"] = [4]
    shallow = dict(small_tree())
    shallow[4] = node_state(parent=2, children=[], depth=3)
    shallow[2]["children"] = [4]
    deep_world = WorldState(node_states=deep)
    shallow_world = WorldState(node_states=shallow)
    assert objective.score(shallow_world) > objective.score(deep_world)


def test_properties_hold_on_consistent_tree():
    props = randtree_properties(RandTreeConfig())
    world = WorldState(node_states=small_tree())
    assert all(p.holds(world) for p in props)


def test_child_parent_property_catches_mismatch():
    props = {p.name: p for p in randtree_properties(RandTreeConfig())}
    states = small_tree()
    states[3]["parent"] = 2  # 1 lists 3 as child, but 3 claims parent 2
    world = WorldState(node_states=states)
    assert not props["child-parent-consistency"].holds(world)


def test_degree_bound_property():
    props = {p.name: p for p in randtree_properties(RandTreeConfig(max_children=2))}
    states = small_tree()
    states[0]["children"] = [1, 2, 3]
    world = WorldState(node_states=states)
    assert not props["degree-bound"].holds(world)


def test_no_self_loops_property():
    props = {p.name: p for p in randtree_properties(RandTreeConfig())}
    states = small_tree()
    states[2]["parent"] = 2
    world = WorldState(node_states=states)
    assert not props["no-self-loops"].holds(world)


def test_explorer_reports_the_degree_rule():
    config = RandTreeConfig(max_children=2)
    factory = make_exposed_factory(config)
    services = [factory(i) for i in range(4)]
    services[0].joined, services[0].children = True, [1, 2, 3]
    for service in services[1:]:
        service.joined, service.parent = True, 0
    world = WorldState({s.node_id: s.checkpoint() for s in services})
    result = Explorer(factory, properties=randtree_properties(config)).bfs(world, max_depth=1)
    assert {v.property_name for v in result.violations} == {"degree-bound"}
