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
from typing import Any, Dict, List, Optional

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
from ..net import Topology, transit_stub
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


def _build_cluster(
    variant: str,
    n: int,
    seed: int,
    topology: Optional[Topology],
    config: RandTreeConfig,
    chain_depth: int,
    budget: int,
    checkpoint_period: float,
    runtime_kwargs: Optional[dict] = None,
    transport_wrapper=None,
) -> Cluster:
    if topology is None:
        topology = transit_stub(n, random.Random(seed))
    if variant == "baseline":
        factory = make_baseline_factory(config)
        return Cluster(n, factory, topology=topology, seed=seed,
                       transport_wrapper=transport_wrapper)
    factory = make_exposed_factory(config)
    if variant == "choice-random":
        cluster = Cluster(
            n, factory, topology=topology, seed=seed,
            resolver_factory=lambda nid: RandomResolver(seed),
            transport_wrapper=transport_wrapper,
        )
        return cluster
    if variant == "choice-crystalball":
        cluster = Cluster(n, factory, topology=topology, seed=seed,
                          transport_wrapper=transport_wrapper)
        install_crystalball(
            cluster,
            factory,
            objective=make_balance_objective(config),
            properties=randtree_properties(config),
            checkpoint_period=checkpoint_period,
            chain_depth=chain_depth,
            budget=budget,
            prediction_period=0.0,  # steering studied separately
            **(runtime_kwargs or {}),
        )
        return cluster
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


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


def run_tree_experiment(
    variant: str,
    n: int = 31,
    seed: int = 0,
    topology: Optional[Topology] = None,
    config: Optional[RandTreeConfig] = None,
    join_spacing: float = 0.3,
    join_settle: float = 8.0,
    failure_settle: float = 6.0,
    rejoin_spacing: float = 0.3,
    rejoin_settle: float = 12.0,
    chain_depth: int = 6,
    budget: int = 250,
    checkpoint_period: float = 0.5,
    runtime_kwargs: Optional[dict] = None,
) -> TreeExperimentResult:
    """Run one full join / fail-subtree / rejoin scenario.

    Nodes join staggered by ``join_spacing`` seconds; once the tree
    settles the depth is measured (E2); the subtree under the root's
    first child is crash-stopped; after failure detection settles the
    failed nodes restart with fresh state, staggered, and the final
    depth is measured (E3).
    """
    cfg = config if config is not None else RandTreeConfig()
    cluster = _build_cluster(
        variant, n, seed, topology, cfg, chain_depth, budget, checkpoint_period,
        runtime_kwargs,
    )
    result = TreeExperimentResult(variant=variant, seed=seed, n=n)

    # Phase 1: staggered joins.
    cluster.node(cfg.root).start()
    others = [nid for nid in range(n) if nid != cfg.root]
    for index, node_id in enumerate(others):
        cluster.sim.schedule_at(
            (index + 1) * join_spacing,
            cluster.node(node_id).start,
            tag=f"exp.start:{node_id}",
        )
    join_measure_t = n * join_spacing + join_settle
    cluster.run(until=join_measure_t)
    states = live_states(cluster_view(cluster))
    result.depth_after_join = max_tree_depth(states, cfg.root)
    result.joined_after_join = len(tree_depths(states, cfg.root))

    # Phase 2: fail the subtree under the root's first child.
    victims = failed_subtree(cluster, cfg)
    result.failed_nodes = victims
    for node_id in victims:
        cluster.node(node_id).crash()
    cluster.run(until=join_measure_t + failure_settle)

    # Phase 3: staggered rejoin with fresh state.
    rejoin_t = join_measure_t + failure_settle
    for index, node_id in enumerate(victims):
        cluster.sim.schedule_at(
            rejoin_t + index * rejoin_spacing,
            lambda nid=node_id: cluster.node(nid).restart(fresh_state=True),
            tag=f"exp.restart:{node_id}",
        )
    cluster.run(until=rejoin_t + len(victims) * rejoin_spacing + rejoin_settle)
    states = live_states(cluster_view(cluster))
    result.depth_after_rejoin = max_tree_depth(states, cfg.root)
    result.joined_after_rejoin = len(tree_depths(states, cfg.root))
    result.metrics = collect_cluster_metrics(cluster)
    return result


__all__ = [
    "VARIANTS",
    "TreeExperimentResult",
    "run_tree_experiment",
    "failed_subtree",
    "optimal_depth",
]
