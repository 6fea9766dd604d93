"""E5: next-block strategy across deployment settings.

Reproduces the BulletPrime observation the paper cites: "neither of
these strategies is decidedly superior" — random vs rarest-random
crosses over between scarce deployments (one seed: piece diversity is
everything, rarest wins) and abundant ones (many seeds: rarity
information is noise, random spreads load as well or better).  The
exposed-choice swarm with the adaptive resolver should track the better
policy in *both* settings without the application changing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..apps.dissemination import (
    AdaptiveBlockResolver,
    DisseminationConfig,
    RarestBlockResolver,
    all_complete,
    completion_times,
    make_baseline_swarm_factory,
    make_exposed_swarm_factory,
    make_views,
)
from ..choice.resolvers import RandomResolver
from ..net import Link, Topology
from ..obs import collect_cluster_metrics
from ..statemachine import Cluster

SWARM_VARIANTS = (
    "baseline-random",
    "baseline-rarest",
    "choice-random",
    "choice-rarest",
    "choice-adaptive",
)

SETTINGS = ("scarce", "abundant")


@dataclass
class SwarmResult:
    """Outcome of one swarm download run."""

    variant: str
    setting: str
    seed: int
    n: int
    mean_completion: Optional[float]
    last_completion: Optional[float]
    finished: int
    leechers: int
    metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        mean = f"{self.mean_completion:.1f}s" if self.mean_completion is not None else "n/a"
        last = f"{self.last_completion:.1f}s" if self.last_completion is not None else "DNF"
        return (
            f"{self.variant:>16} [{self.setting:>8}] seed={self.seed}  "
            f"mean={mean} last={last}  done={self.finished}/{self.leechers}"
        )


def swarm_topology(n: int, seed: int) -> Topology:
    """Flat low-latency swarm; bandwidth is governed by node uplinks."""
    rng = random.Random(seed)
    topo = Topology(n)
    for i in range(n):
        for j in range(i + 1, n):
            topo.set_symmetric(
                i, j, Link(latency=rng.uniform(0.01, 0.05), bandwidth=1e9),
            )
    return topo


def setting_config(setting: str, n: int, block_count: int) -> DisseminationConfig:
    """Deployment settings: scarce (1 seed) vs abundant (many seeds)."""
    if setting == "scarce":
        seeds: Tuple[int, ...] = (0,)
    elif setting == "abundant":
        seeds = tuple(range(max(2, n // 4)))
    else:
        raise ValueError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    return DisseminationConfig(n=n, block_count=block_count, seeds=seeds)


# Every node's uplink (bits/s), seeds and leechers alike, and the
# sim-seconds between two checks of whether every leecher is done.
UPLINK, POLL_INTERVAL = 4e6, 0.5


def run_swarm_experiment(
    variant: str,
    setting: str = "scarce",
    n: int = 17,
    seed: int = 0,
    block_count: int = 96,
    max_time: float = 300.0,
) -> SwarmResult:
    """Run one swarm download and report completion statistics."""
    config = setting_config(setting, n, block_count)
    views = make_views(n, config.view_size, seed)
    topology = swarm_topology(n, seed)

    if variant not in SWARM_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {SWARM_VARIANTS}")
    kind, policy = variant.split("-")
    resolver_factory = None
    if kind == "baseline":
        factory = make_baseline_swarm_factory(config, views, policy)
    else:
        factory = make_exposed_swarm_factory(config, views)
        resolver_factory = {
            "random": lambda nid: RandomResolver(seed),
            "rarest": lambda nid: RarestBlockResolver(),
            "adaptive": lambda nid: AdaptiveBlockResolver(),
        }[policy]
    cluster = Cluster(n, factory, topology=topology, seed=seed,
                      resolver_factory=resolver_factory)

    for node_id in range(n):
        cluster.network.set_uplink(node_id, UPLINK)

    cluster.start_all()
    while cluster.sim.now < max_time:
        cluster.run(until=min(max_time, cluster.sim.now + POLL_INTERVAL))
        if all_complete(cluster.services):
            break

    times = completion_times(cluster.services)
    leechers = n - len(config.seeds)
    return SwarmResult(
        variant=variant,
        setting=setting,
        seed=seed,
        n=n,
        mean_completion=sum(times) / len(times) if times else None,
        last_completion=times[-1] if len(times) == leechers else None,
        finished=len(times),
        leechers=leechers,
        metrics=collect_cluster_metrics(cluster),
    )


__all__ = ["SWARM_VARIANTS", "SETTINGS", "SwarmResult", "swarm_topology",
           "setting_config", "run_swarm_experiment"]
