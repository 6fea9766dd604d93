"""RandTree: the paper's Section 4 case study.

``BaselineRandTree`` buries its policies in one monolithic handler with
PRNG calls; ``ExposedRandTree`` exposes the same decisions through the
choice API and guard-split handlers.  ``common`` holds the shared wire
protocol, tree analysis, objectives, and safety properties.
"""

from .baseline import BaselineRandTree, make_baseline_factory
from .common import (
    Heartbeat,
    HeartbeatAck,
    Join,
    JoinReply,
    RandTreeConfig,
    STATE_FIELDS,
    check_randtree_invariants,
    consistent_edges,
    live_states,
    make_balance_objective,
    max_tree_depth,
    randtree_properties,
    subtree_sizes,
    tree_depths,
    unattached_nodes,
)
from .exposed import ExposedRandTree, make_exposed_factory
from .views import ViewRandTree, make_view_randtree_factory

__all__ = [
    "ViewRandTree",
    "make_view_randtree_factory",
    "BaselineRandTree",
    "make_baseline_factory",
    "Heartbeat",
    "HeartbeatAck",
    "Join",
    "JoinReply",
    "RandTreeConfig",
    "STATE_FIELDS",
    "check_randtree_invariants",
    "consistent_edges",
    "live_states",
    "make_balance_objective",
    "max_tree_depth",
    "randtree_properties",
    "subtree_sizes",
    "tree_depths",
    "unattached_nodes",
    "ExposedRandTree",
    "make_exposed_factory",
]
