"""Continuous-churn robustness scenario for RandTree.

The paper claims the programming model yields "increased performance
and robustness to various deployment settings".  The E3 case study uses
one catastrophic failure; this scenario applies *continuous churn*:
random non-root nodes crash and later rejoin throughout the run, the
tree never settles, and we measure time-averaged tree quality instead
of a single end-state snapshot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict

from ..apps.randtree import RandTreeConfig, live_states, max_tree_depth, tree_depths
from ..mc import cluster_view
from ..obs import collect_cluster_metrics
from .tree_experiment import build_tree_cluster, join_staggered


@dataclass
class ChurnResult:
    """Time-averaged tree quality under continuous churn."""

    variant: str
    seed: int
    n: int
    samples: int = 0
    mean_depth: float = 0.0
    max_depth: int = 0
    mean_attached_fraction: float = 0.0
    churn_events: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.variant:>20}  seed={self.seed}  mean depth={self.mean_depth:.2f}  "
            f"max={self.max_depth}  attached={self.mean_attached_fraction:.0%}  "
            f"events={self.churn_events}"
        )


# Sim-seconds between two samples of tree quality.
SAMPLE_PERIOD = 1.0


def run_churn_experiment(
    variant: str,
    n: int = 21,
    seed: int = 0,
    warmup: float = 12.0,
    duration: float = 40.0,
    churn_period: float = 2.5,
    downtime: float = 4.0,
    chain_depth: int = 6,
    budget: int = 200,
) -> ChurnResult:
    """Run one continuous-churn scenario.

    After a staggered warm-up join phase, every ``churn_period`` a
    random live non-root node crashes and restarts ``downtime`` seconds
    later with fresh state.  Tree depth and attached fraction are
    sampled every :data:`SAMPLE_PERIOD` over the churn window.
    """
    cfg = RandTreeConfig()
    cluster = build_tree_cluster(
        variant, n, seed, cfg, runtime_kwargs=dict(chain_depth=chain_depth, budget=budget),
    )
    result = ChurnResult(variant=variant, seed=seed, n=n)
    churn_rng = random.Random(seed ^ 0xC0FFEE)

    join_staggered(cluster, cfg.root, 0.3, "churn.start")
    cluster.run(until=warmup)

    # Schedule the churn process.
    t = warmup
    while t < warmup + duration - downtime:
        victim = churn_rng.randrange(1, n)
        cluster.sim.schedule_at(
            t, lambda v=victim: cluster.node(v).is_up and cluster.node(v).crash(),
            tag=f"churn.crash:{victim}",
        )
        cluster.sim.schedule_at(
            t + downtime,
            lambda v=victim: (not cluster.node(v).is_up) and cluster.node(v).restart(fresh_state=True),
            tag=f"churn.restart:{victim}",
        )
        result.churn_events += 1
        t += churn_period

    # Sample tree quality through the churn window.
    depth_sum = 0.0
    attached_sum = 0.0
    clock = warmup
    while clock < warmup + duration:
        cluster.run(until=clock + SAMPLE_PERIOD)
        clock += SAMPLE_PERIOD
        states = live_states(cluster_view(cluster))
        live = len(states)
        depth = max_tree_depth(states, cfg.root)
        # Optimistic edges may reach crashed children that still appear
        # in a parent's list; only live nodes count as attached.
        attached = len(set(tree_depths(states, cfg.root)) & set(states))
        result.samples += 1
        depth_sum += depth
        result.max_depth = max(result.max_depth, depth)
        attached_sum += attached / max(1, live)
    result.mean_depth = depth_sum / result.samples
    result.mean_attached_fraction = attached_sum / result.samples
    result.metrics = collect_cluster_metrics(cluster)
    return result


__all__ = ["ChurnResult", "run_churn_experiment"]
