"""E4: gossip dissemination under restricted vs exposed peer choice.

Section 3.1's gossip example: BAR-style restriction of peer choice is
robust but "the performance might suffer if, e.g., the only target is
behind a slow network connection"; exposing the choice lets the runtime
recover the speed.  The scenario streams rumors from a source over a
heterogeneous topology where a fraction of nodes sit behind slow links,
and measures mean per-rumor delivery latency, completion, and message
overhead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..apps.gossip import (
    GossipConfig,
    all_delivered,
    coverage,
    make_baseline_gossip_factory,
    make_exposed_gossip_factory,
    make_model_gossip_resolver,
    mean_delivery_latency,
)
from ..choice.resolvers import RandomResolver
from ..net import Link, Topology
from ..obs import collect_cluster_metrics
from ..runtime import install_crystalball
from ..statemachine import Cluster

GOSSIP_VARIANTS = ("baseline-random", "baseline-bar", "choice-random", "choice-model")

APP_MESSAGE_KINDS = ("GossipPush", "GossipPullReply")


@dataclass
class GossipResult:
    """Outcome of one gossip dissemination run."""

    variant: str
    seed: int
    n: int
    mean_latency: Optional[float]
    coverage: float
    app_messages: int
    metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        latency = f"{self.mean_latency:.3f}s" if self.mean_latency is not None else "n/a"
        return (
            f"{self.variant:>16}  seed={self.seed}  mean latency={latency}  "
            f"coverage={self.coverage:.0%}  msgs={self.app_messages}"
        )


def heterogeneous_topology(
    n: int,
    seed: int,
    slow_fraction: float = 0.25,
    slow_latency: float = 0.4,
) -> Topology:
    """Mostly-fast cluster (10-40 ms, 50 Mbit/s links) with a fraction of
    nodes behind slow links (``slow_latency`` more, 2 Mbit/s)."""
    rng = random.Random(seed)
    slow = set(rng.sample(range(n), max(1, int(n * slow_fraction))))
    topo = Topology(n)
    for i in range(n):
        for j in range(i + 1, n):
            latency = rng.uniform(0.01, 0.04)
            bandwidth = 50e6
            if i in slow or j in slow:
                latency += slow_latency
                bandwidth = 2e6
            topo.set_symmetric(i, j, Link(latency=latency, bandwidth=bandwidth))
    return topo


def _count_app_messages(cluster: Cluster) -> int:
    return sum(
        1
        for rec in cluster.sim.trace.select("net.send")
        if rec.data.get("kind") in APP_MESSAGE_KINDS
    )


# Sim-seconds between two checks of whether every rumor reached every node.
POLL_INTERVAL = 0.1


def run_gossip_experiment(
    variant: str,
    n: int = 32,
    seed: int = 0,
    rumor_count: int = 10,
    round_period: float = 0.5,
    publish_interval: float = 1.0,
    max_time: float = 120.0,
) -> GossipResult:
    """Run one streaming dissemination scenario on
    :func:`heterogeneous_topology`; the run stops once every rumor has
    reached every node, or at ``max_time``."""
    config = GossipConfig(
        n=n, round_period=round_period, rumor_count=rumor_count,
        publish_interval=publish_interval,
    )
    topology = heterogeneous_topology(n, seed)

    if variant not in GOSSIP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {GOSSIP_VARIANTS}")
    kind, policy = variant.split("-")
    if kind == "baseline":
        factory = make_baseline_gossip_factory(config, policy)
    else:
        factory = make_exposed_gossip_factory(config)
    resolvers = {"choice-random": lambda nid: RandomResolver(seed),
                 "choice-model": lambda nid: make_model_gossip_resolver()}
    cluster = Cluster(n, factory, topology=topology, seed=seed,
                      resolver_factory=resolvers.get(variant))
    if variant == "choice-model":
        for runtime in install_crystalball(cluster, factory, set_resolver=False,
                                           checkpoint_period=round_period,
                                           prediction_period=0.0):
            runtime.network_model.bootstrap_from_topology(topology)

    cluster.start_all()
    while cluster.sim.now < max_time:
        cluster.run(until=min(max_time, cluster.sim.now + POLL_INTERVAL))
        if all_delivered(cluster.services, rumor_count):
            break
    return GossipResult(
        variant=variant,
        seed=seed,
        n=n,
        mean_latency=mean_delivery_latency(cluster.services, config),
        coverage=coverage(cluster.services, rumor_count),
        app_messages=_count_app_messages(cluster),
        metrics=collect_cluster_metrics(cluster),
    )


__all__ = ["GOSSIP_VARIANTS", "GossipResult", "heterogeneous_topology", "run_gossip_experiment"]
