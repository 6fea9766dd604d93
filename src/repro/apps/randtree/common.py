"""Shared RandTree protocol pieces: wire messages, configuration, tree
analysis, safety properties, and the balance objective.

RandTree builds a random overlay tree with bounded node degree.  "In a
random overlay tree, a node has the choice of forwarding an incoming
join request to its parent or to one of its children, to meet the
expected goal of a balanced tree" (Section 3.1).  Both the baseline and
the choice-exposed implementations speak these messages and share state
field names, so the same analysis and objectives apply to either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from ...choice.objectives import Objective, PerformanceObjective, WeightedObjective
from ...mc.properties import SafetyProperty, all_nodes, pairwise
from ...statemachine import Message

# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------


@dataclass
class Join(Message):
    """Request that ``joiner`` be attached somewhere in the tree."""

    joiner: int


@dataclass
class JoinReply(Message):
    """Acceptance from the node that adopted the joiner.

    ``depth`` is the adopter's depth plus one (root has depth 1, the
    convention the paper's Section 4 numbers use: optimal depth for 31
    nodes with fan-out 2 is 5).  ``siblings`` and ``grandparent`` seed
    the joiner's recovery information.
    """

    accepted: bool
    depth: int
    siblings: List[int]
    grandparent: Optional[int]


@dataclass
class Heartbeat(Message):
    """Child-to-parent liveness beacon."""


@dataclass
class HeartbeatAck(Message):
    """Parent's reply.

    Carries the parent's current depth (so depth refreshes propagate
    down the tree) and the child's current family information
    (siblings and grandparent) used for failure recovery.
    """

    depth: int
    siblings: List[int]
    grandparent: Optional[int]


@dataclass
class Ping(Message):
    """Baseline-only active RTT probe.

    The baseline implements its own network measurement (the
    duplicated-effort pattern Section 1 criticizes); the exposed
    version relies on the runtime's shared network model instead.
    """

    sent_at: float


@dataclass
class Pong(Message):
    """Reply to a baseline :class:`Ping`."""

    sent_at: float


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RandTreeConfig:
    """Protocol parameters shared by both implementations."""

    root: int = 0
    max_children: int = 2
    hb_period: float = 0.5
    child_timeout: float = 2.0
    parent_miss_limit: int = 3
    join_retry: float = 1.5
    sweep_period: float = 1.0
    ping_period: float = 1.0  # baseline-only active probing
    recovery_root_fallback: int = 2  # rejoin attempts before falling back to root


# State field names shared by both implementations (and relied on by
# tree analysis over checkpoints).
STATE_FIELDS = (
    "joined", "parent", "children", "depth", "child_last_seen", "hb_missed",
    "siblings", "grandparent",
)


# ----------------------------------------------------------------------
# Tree analysis (over live services or checkpoint dicts)
# ----------------------------------------------------------------------


def consistent_edges(states: Dict[int, Dict[str, Any]], root: int) -> Dict[int, List[int]]:
    """Adjacency of *consistent* parent->child edges.

    An edge exists when the parent lists the child AND the child (if
    known) agrees and is joined.  Children without a checkpoint are
    included optimistically (partial knowledge).
    """
    adjacency: Dict[int, List[int]] = {}
    for node_id, state in states.items():
        if node_id != root and not state.get("joined"):
            continue
        kids = []
        for child in state.get("children", []):
            child_state = states.get(child)
            if child_state is None:
                kids.append(child)
            elif child_state.get("joined") and child_state.get("parent") == node_id:
                kids.append(child)
        adjacency[node_id] = kids
    return adjacency


def tree_depths(states: Dict[int, Dict[str, Any]], root: int) -> Dict[int, int]:
    """Depth of every node reachable from the root (root depth = 1)."""
    adjacency = consistent_edges(states, root)
    depths: Dict[int, int] = {}
    if root not in states:
        return depths
    frontier = [(root, 1)]
    while frontier:
        node_id, depth = frontier.pop()
        if node_id in depths:
            continue  # defensive: a cycle in inconsistent states
        depths[node_id] = depth
        for child in adjacency.get(node_id, []):
            if child not in depths:
                frontier.append((child, depth + 1))
    return depths


def max_tree_depth(states: Dict[int, Dict[str, Any]], root: int) -> int:
    """Maximum depth over reachable nodes (0 for an unknown root)."""
    depths = tree_depths(states, root)
    return max(depths.values()) if depths else 0


def unattached_nodes(states: Dict[int, Dict[str, Any]], root: int) -> Set[int]:
    """Nodes present in ``states`` but not reachable from the root."""
    reachable = set(tree_depths(states, root))
    return set(states) - reachable


def subtree_sizes(states: Dict[int, Dict[str, Any]], root: int) -> Dict[int, int]:
    """Size of the subtree rooted at each reachable node."""
    adjacency = consistent_edges(states, root)
    sizes: Dict[int, int] = {}

    order: List[int] = []
    seen = {root}
    stack = [root]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        for child in adjacency.get(node_id, []):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    for node_id in reversed(order):
        sizes[node_id] = 1 + sum(sizes.get(c, 0) for c in adjacency.get(node_id, []))
    return sizes


def live_states(world) -> Dict[int, Dict[str, Any]]:
    """The states of a world's live nodes, by id: what every tree
    analysis reads (a crashed node holds no authoritative beliefs)."""
    return {nid: world.state_of(nid) for nid in world.live_nodes()}


def total_path_length(states: Dict[int, Dict[str, Any]], root: int) -> int:
    """Sum of depths of all reachable nodes.

    Unlike maximum depth this metric strictly improves for *every*
    shallower attachment, so it discriminates between candidate
    subtrees even while the maximum is untouched (a pure max-depth
    objective plateaus and degenerates into first-candidate herding).
    """
    return sum(tree_depths(states, root).values())


def pending_forward_penalty(states: Dict[int, Dict[str, Any]], root: int) -> float:
    """Load implied by in-flight joins, from service-contributed state.

    Each join a node recently forwarded toward child ``c`` will attach
    somewhere below ``c`` — work that no checkpoint shows yet.  The
    penalty is ``(depth(c) + 1) * count²`` per child: depth-weighted so
    deeper targets cost more, and convex in the count so concurrent
    bursts spread across children instead of herding into one subtree.
    """
    depths = tree_depths(states, root)
    penalty = 0.0
    for node_id, state in states.items():
        node_depth = depths.get(node_id)
        for child, count in state.get("recent_forwards", {}).items():
            child_depth = depths.get(child, (node_depth or 0) + 1)
            penalty += (child_depth + 1) * float(count) ** 2
    return penalty


def make_balance_objective(config: RandTreeConfig) -> Objective:
    """The objective installed in the case study: "prioritize building a
    balanced tree" (Section 4).

    Dominant term: maximum tree depth.  Tie-breaking term: total path
    length, so attachments below the current maximum still prefer the
    shallower subtree.  Unattached nodes carry a heavy penalty so
    resolution never favours dropping a joiner.
    """
    root = config.root
    depth_term = PerformanceObjective(
        "max-tree-depth", lambda world: float(max_tree_depth(live_states(world), root)),
        minimize=True, weight=1.0,
    )
    path_term = PerformanceObjective(
        "total-path-length",
        lambda world: float(total_path_length(live_states(world), root)),
        minimize=True, weight=0.05,
    )
    orphan_term = PerformanceObjective(
        "unattached-nodes",
        lambda world: float(len(unattached_nodes(live_states(world), root))),
        minimize=True, weight=10.0,
    )
    pending_term = PerformanceObjective(
        "pending-forwards",
        lambda world: pending_forward_penalty(live_states(world), root),
        minimize=True, weight=0.05,
    )
    return WeightedObjective(
        [(1.0, depth_term), (1.0, path_term), (1.0, orphan_term), (1.0, pending_term)],
        name="tree-balance",
    )


def child_parent_consistent(a: int, sa: Dict[str, Any], b: int, sb: Dict[str, Any]) -> bool:
    """If a lists b as a child and b is joined, b must name a as parent."""
    if b in sa.get("children", []) and sb.get("joined"):
        return sb.get("parent") == a
    return True


def no_self_loop(nid: int, state: Dict[str, Any]) -> bool:
    """A node never parents or adopts itself."""
    return state.get("parent") != nid and nid not in state.get("children", [])


def degree_bound(config: RandTreeConfig) -> Callable[[int, Dict[str, Any]], bool]:
    """The per-node degree rule: no node holds more than
    ``config.max_children`` children."""

    def within_degree(nid: int, state: Dict[str, Any]) -> bool:
        return len(state.get("children", [])) <= config.max_children

    return within_degree


def randtree_properties(config: RandTreeConfig) -> List[SafetyProperty]:
    """Safety properties for RandTree worlds (CrystalBall-style).

    All three are built from the :mod:`repro.mc.properties` combinators
    so they evaluate incrementally on evolved worlds.
    """
    return [
        pairwise(child_parent_consistent, name="child-parent-consistency"),
        all_nodes(degree_bound(config), name="degree-bound"),
        all_nodes(no_self_loop, name="no-self-loops"),
    ]


def check_randtree_invariants(
    states: Dict[int, Dict[str, Any]],
    config: RandTreeConfig,
) -> List[str]:
    """Violations of RandTree's structural safety in ``states``.

    ``states`` maps node id to state, live nodes only (see
    :func:`live_states`).  The properties are exactly the ones the
    protocol's guards enforce, so they must hold at *every* instant of
    *any* chaos schedule:

    * no node is its own parent or child (:func:`no_self_loop`);
    * no node lists the same child twice;
    * no node exceeds ``config.max_children`` (:func:`degree_bound`);
    * the consistent-edge graph (parent lists child AND child agrees)
      is acyclic.  One-sided stale beliefs are legitimate transients —
      a swept child still pointing at its old parent — but a cycle of
      mutually-agreed edges would be an unrecoverable safety bug.
    """
    within_degree = degree_bound(config)
    violations: List[str] = []
    for node_id, state in states.items():
        children = state.get("children", [])
        if not no_self_loop(node_id, state):
            if state.get("parent") == node_id:
                violations.append(f"node {node_id} is its own parent")
            if node_id in children:
                violations.append(f"node {node_id} is its own child")
        if len(set(children)) != len(children):
            violations.append(f"node {node_id} lists a child twice: {children}")
        if not within_degree(node_id, state):
            violations.append(
                f"node {node_id} exceeds degree bound: "
                f"{len(children)} > {config.max_children}"
            )
    adjacency = consistent_edges(states, config.root)
    # Iterative three-colour DFS over the consistent-edge graph.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {nid: WHITE for nid in adjacency}
    for start in sorted(adjacency):
        if colour[start] != WHITE:
            continue
        stack: List[tuple] = [(start, iter(adjacency[start]))]
        colour[start] = GREY
        while stack:
            node_id, children_iter = stack[-1]
            advanced = False
            for child in children_iter:
                if colour.get(child, BLACK) == GREY:
                    violations.append(
                        f"cycle through consistent edge {node_id}->{child}"
                    )
                elif colour.get(child) == WHITE:
                    colour[child] = GREY
                    stack.append((child, iter(adjacency[child])))
                    advanced = True
                    break
            if not advanced:
                colour[node_id] = BLACK
                stack.pop()
    return violations


__all__ = [
    "Join",
    "JoinReply",
    "Heartbeat",
    "HeartbeatAck",
    "RandTreeConfig",
    "STATE_FIELDS",
    "consistent_edges",
    "tree_depths",
    "max_tree_depth",
    "unattached_nodes",
    "subtree_sizes",
    "live_states",
    "make_balance_objective",
    "pending_forward_penalty",
    "child_parent_consistent",
    "no_self_loop",
    "degree_bound",
    "randtree_properties",
    "check_randtree_invariants",
]
