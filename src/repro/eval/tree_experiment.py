"""The Section 4 case-study scenario: join, fail a subtree, rejoin.

"We conducted our live experiments with 31 participants over an
Internet-like network ... After all 31 participants join the tree, the
maximum depth is 6 in all cases (close to the optimal of 5).  We then
fail an entire subtree (about half of the nodes), and then let these
nodes rejoin.  Baseline and Choice-Random exhibit identical maximum
depth (10), while the Choice-CrystalBall version is better with 9
levels."

:func:`run_tree_experiment` reproduces that timeline for any of the
three setups and reports the two depth measurements (E2 and E3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import collect_cluster_metrics

from ..apps.randtree import (
    RandTreeConfig,
    live_states,
    make_balance_objective,
    make_baseline_factory,
    make_exposed_factory,
    max_tree_depth,
    randtree_properties,
    tree_depths,
)
from ..choice.resolvers import RandomResolver
from ..mc import cluster_view
from ..net import transit_stub
from ..runtime import install_crystalball
from ..statemachine import Cluster

VARIANTS = ("baseline", "choice-random", "choice-crystalball")


@dataclass
class TreeExperimentResult:
    """Depth measurements for one run of the case-study scenario."""

    variant: str
    seed: int
    n: int
    depth_after_join: int = 0
    joined_after_join: int = 0
    depth_after_rejoin: int = 0
    joined_after_rejoin: int = 0
    failed_nodes: List[int] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.variant:>20}  seed={self.seed}  "
            f"join: depth={self.depth_after_join} joined={self.joined_after_join}/{self.n}  "
            f"rejoin: depth={self.depth_after_rejoin} joined={self.joined_after_rejoin}/{self.n}"
        )


def optimal_depth(n: int, fanout: int) -> int:
    """Depth (root = 1) of a complete ``fanout``-ary tree on ``n`` nodes."""
    depth = 0
    capacity = 0
    level_width = 1
    while capacity < n:
        depth += 1
        capacity += level_width
        level_width *= fanout
    return depth


# Runtime settings of the ``choice-crystalball`` variant; a world's
# ``runtime_kwargs`` override them.  Steering is studied separately, so
# no periodic prediction runs: choices are predicted when they are made.
_RUNTIME = dict(checkpoint_period=0.5, chain_depth=6, budget=250, prediction_period=0.0)


def build_tree_cluster(
    variant: str,
    n: int,
    seed: int,
    config: RandTreeConfig,
    runtime_kwargs: Optional[dict] = None,
    transport_wrapper=None,
    causal: bool = False,
    factory: Optional[Callable[[int], Any]] = None,
) -> Cluster:
    """The one RandTree world: ``n`` nodes of ``variant`` on a transit-stub
    topology drawn from ``seed``, none started yet (see
    :func:`join_staggered`).

    ``baseline`` runs the hand-coded tree; the two exposed variants
    resolve its choices at random or through a CrystalBall runtime on
    every node.  ``factory`` replaces the variant's service factory: a
    fuzz target builds its world from its own ``factory`` attribute.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    topology = transit_stub(n, random.Random(seed))
    if factory is None:
        factory = (make_baseline_factory if variant == "baseline"
                   else make_exposed_factory)(config)
    resolver_factory = None
    if variant == "choice-random":
        resolver_factory = lambda nid: RandomResolver(seed)
    cluster = Cluster(n, factory, topology=topology, seed=seed,
                      resolver_factory=resolver_factory,
                      transport_wrapper=transport_wrapper, causal=causal)
    if variant == "choice-crystalball":
        install_crystalball(
            cluster, factory,
            objective=make_balance_objective(config),
            properties=randtree_properties(config),
            **{**_RUNTIME, **(runtime_kwargs or {})},
        )
    return cluster


def join_staggered(cluster: Cluster, root: int, spacing: float, tag: str) -> None:
    """Start ``root`` now and every other node ``spacing`` seconds after
    the one before it, in id order."""
    cluster.node(root).start()
    others = [nid for nid in range(len(cluster.nodes)) if nid != root]
    for index, node_id in enumerate(others):
        cluster.sim.schedule_at(
            (index + 1) * spacing, cluster.node(node_id).start, tag=f"{tag}:{node_id}",
        )


def failed_subtree(cluster: Cluster, config: RandTreeConfig) -> List[int]:
    """The nodes of the subtree under the root's first child.

    With fan-out 2 and a full tree this is about half the nodes,
    matching the paper's failure injection.
    """
    states = live_states(cluster_view(cluster))
    root_children = states[config.root].get("children", [])
    if not root_children:
        return []
    head = root_children[0]
    members = []
    stack = [head]
    while stack:
        node_id = stack.pop()
        members.append(node_id)
        stack.extend(states.get(node_id, {}).get("children", []))
    return sorted(members)


def _tree_shape(cluster: Cluster, root: int) -> Tuple[int, int]:
    """(maximum depth, nodes attached) of the live tree under ``root``."""
    states = live_states(cluster_view(cluster))
    return max_tree_depth(states, root), len(tree_depths(states, root))


# The scenario's timeline (seconds): join spacing, and how long the tree
# settles after the joins and after the failure.
JOIN_SPACING, JOIN_SETTLE, FAILURE_SETTLE = 0.3, 8.0, 6.0


def run_tree_experiment(
    variant: str,
    n: int = 31,
    seed: int = 0,
    rejoin_spacing: float = 0.3,
    rejoin_settle: float = 12.0,
    chain_depth: int = 6,
    budget: int = 250,
    checkpoint_period: float = 0.5,
) -> TreeExperimentResult:
    """Run one full join / fail-subtree / rejoin scenario.

    Nodes join staggered by :data:`JOIN_SPACING` seconds; once the tree
    settles the depth is measured (E2); the subtree under the root's
    first child is crash-stopped; after failure detection settles the
    failed nodes restart with fresh state, ``rejoin_spacing`` apart, and
    the final depth is measured (E3).
    """
    cfg = RandTreeConfig()
    cluster = build_tree_cluster(
        variant, n, seed, cfg,
        runtime_kwargs=dict(checkpoint_period=checkpoint_period, chain_depth=chain_depth,
                            budget=budget),
    )
    result = TreeExperimentResult(variant=variant, seed=seed, n=n)

    # Phase 1: staggered joins.
    join_staggered(cluster, cfg.root, JOIN_SPACING, "exp.start")
    join_measure_t = n * JOIN_SPACING + JOIN_SETTLE
    cluster.run(until=join_measure_t)
    result.depth_after_join, result.joined_after_join = _tree_shape(cluster, cfg.root)

    # Phase 2: fail the subtree under the root's first child.
    victims = failed_subtree(cluster, cfg)
    result.failed_nodes = victims
    for node_id in victims:
        cluster.node(node_id).crash()
    rejoin_t = join_measure_t + FAILURE_SETTLE
    cluster.run(until=rejoin_t)

    # Phase 3: staggered rejoin with fresh state.
    for index, node_id in enumerate(victims):
        cluster.sim.schedule_at(
            rejoin_t + index * rejoin_spacing,
            lambda nid=node_id: cluster.node(nid).restart(fresh_state=True),
            tag=f"exp.restart:{node_id}",
        )
    cluster.run(until=rejoin_t + len(victims) * rejoin_spacing + rejoin_settle)
    result.depth_after_rejoin, result.joined_after_rejoin = _tree_shape(cluster, cfg.root)
    result.metrics = collect_cluster_metrics(cluster)
    return result


__all__ = [
    "VARIANTS",
    "TreeExperimentResult",
    "build_tree_cluster",
    "join_staggered",
    "run_tree_experiment",
    "failed_subtree",
    "optimal_depth",
]
