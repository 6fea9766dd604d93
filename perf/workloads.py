"""The five fixed workloads.

Each ``run_*`` function builds one world from a simulator seed, runs it
once and returns an :class:`Outcome`.  Sizes are fixed (see README.md);
the program under test receives only what is generated here: a seeded
topology, a fault plan, a request count, the simulator seed.

A repetition has two host-clock intervals, marked on a :class:`Window`:
*set-up* from the call to where the measured window opens (the first
``Simulator.run`` entry, or the ``bfs`` call), and the *window* from
there to the result.  Where an experiment function builds and runs its
world in one call, the first-entry stamp comes from a hook put around
``Simulator.run`` for the duration of the call.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

WORKLOADS = ("paxos_static", "paxos_amortized", "gossip_1k", "tree_churn", "mc_bfs")

# The repro modules a workload's fresh-interpreter import time covers.
MODULES = {
    "paxos_static": ("repro.eval.paxos_experiment", "repro.eval.chaos_experiment"),
    "paxos_amortized": ("repro.eval.paxos_experiment", "repro.eval.chaos_experiment"),
    "gossip_1k": ("repro.apps.gossip", "repro.choice.resolvers", "repro.net",
                  "repro.statemachine"),
    "tree_churn": ("repro.eval.churn_experiment",),
    "mc_bfs": ("repro.apps.randtree", "repro.choice.resolvers", "repro.mc",
               "repro.statemachine"),
}

# Repetitions per process.  Constants, so two runs of a workload always
# take the best of the same number: the most the driver's time cap
# leaves room for on this host, never below 3.
REPS = {"paxos_static": 3, "paxos_amortized": 3, "gossip_1k": 3, "tree_churn": 3,
        "mc_bfs": 3}

PAXOS_REQUESTS = 100_000
PAXOS_HORIZON = 60.0
GOSSIP_STUBS, GOSSIP_STUB_SIZE, GOSSIP_RUMORS = 25, 40, 2
GOSSIP_JOIN_UNTIL, GOSSIP_UNTIL = 1.0, 7.0
CHURN_NODES = 21
BFS_NODES, BFS_SETTLE, BFS_DEPTH, BFS_MAX_STATES = 31, 20.0, 3, 20_000


class Window:
    """Host-clock marks of one repetition."""

    def __init__(self, on_open: Callable[[], None] = lambda: None,
                 on_close: Callable[[], None] = lambda: None) -> None:
        self._on_open, self._on_close = on_open, on_close
        self.called = perf_counter()
        self.opened: Optional[float] = None
        self.closed: Optional[float] = None

    def open(self) -> None:
        if self.opened is None:
            self._on_open()
            self.opened = perf_counter()

    def close(self) -> None:
        self.closed = perf_counter()
        self._on_close()

    @property
    def setup_s(self) -> float:
        return self.opened - self.called

    @property
    def wall_s(self) -> float:
        return self.closed - self.opened


@dataclass
class Outcome:
    """What one repetition produced."""

    window: Window
    digest: str
    attempted: int
    sim: Dict[str, float]  # sim-clock metrics: exact for a seed
    counts: Dict[str, float] = field(default_factory=dict)  # per-layer counters
    work: Dict[str, float] = field(default_factory=dict)  # numerators of eval.* rates
    checks: Dict[str, bool] = field(default_factory=dict)


@contextmanager
def _opened_at_first_run(window: Window) -> Iterator[None]:
    """Open ``window`` at the first ``Simulator.run`` entry of the block."""
    from repro.sim.scheduler import Simulator

    inner = Simulator.run

    def run(self, until=None, max_events=None):
        window.open()
        return inner(self, until=until, max_events=max_events)

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = inner


@contextmanager
def _captured_clusters(module) -> Iterator[List[Any]]:
    """The ``Cluster`` objects ``module`` builds while the block runs:
    the experiment functions return summaries, not their world."""
    real = module.Cluster
    built: List[Any] = []

    def cluster(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    module.Cluster = cluster
    try:
        yield built
    finally:
        module.Cluster = real


def _quantile(ordered: List[float], q: float) -> float:
    return ordered[int(q * (len(ordered) - 1))]


def _network_counts(cluster) -> Dict[str, float]:
    network = cluster.network
    return {
        "net.messages_sent": network.messages_sent,
        "net.messages_delivered": network.messages_delivered,
        "net.messages_dropped": network.messages_dropped,
        "net.bytes_sent": network.bytes_sent,
    }


def _runtime_counts(cluster) -> Dict[str, float]:
    """Counters the CrystalBall runtimes keep, summed over nodes."""
    from repro.runtime import merge_steering_snapshots

    runtimes = [node.crystalball for node in cluster.nodes if node.crystalball is not None]
    if not runtimes:
        return {}
    stats: Dict[str, float] = {}
    for runtime in runtimes:
        for key, value in runtime.stats.items():
            stats[key] = stats.get(key, 0) + value
    counts = {
        "runtime.resolutions": stats.get("choices_resolved", 0),
        "runtime.checkpoint.bytes_sent": stats.get("checkpoint_bytes_sent", 0),
        "mc.states_explored": stats.get("states_explored", 0),
    }
    amortized = [runtime for runtime in runtimes if runtime.amortized is not None]
    steering = merge_steering_snapshots(r.amortized.snapshot() for r in amortized)
    paths = steering["counters"]
    for key in ("coalesced", "policy_hits", "fallbacks", "denied", "deferred",
                "scored_rounds"):
        counts[f"runtime.policy.{key}"] = paths.get(key, 0)
    counts["runtime.policy.spent_states"] = steering["spent_states"]
    counts["runtime.policy.hit_rate"] = steering["policy"]["hit_rate"]
    # ROADMAP item 5: the amortized scheduler's path counters do not add
    # up to the resolutions it served.  Reported, not fixed.
    counts["runtime.resolutions_unaccounted"] = (
        sum(r.stats["choices_resolved"] for r in amortized)
        - sum(paths.get(key, 0) for key in
              ("coalesced", "policy_hits", "scored_rounds", "fallbacks")))
    pools = [runtime.make_explorer().pool for runtime in runtimes]
    skipped = sum(pool.restores_skipped for pool in pools)
    restores = sum(pool.restores for pool in pools)
    counts["mc.pool.hit_rate"] = skipped / (skipped + restores) if skipped + restores else 0.0
    memo = [runtime.metrics.counters() for runtime in runtimes]
    memo_hits = sum(c.get("mc.memo.hits", 0) for c in memo)
    memo_misses = sum(c.get("mc.memo.misses", 0) for c in memo)
    counts["mc.chain_memo.hit_rate"] = (
        memo_hits / (memo_hits + memo_misses) if memo_hits + memo_misses else 0.0)
    return counts


def _run_paxos(mode: str, seed: int, window: Window) -> Outcome:
    from repro.eval import paxos_experiment
    from repro.eval.chaos_experiment import standard_plans

    plan = standard_plans(5, PAXOS_HORIZON, amnesia=False)[0]  # message-chaos
    with _captured_clusters(paxos_experiment) as built, \
            _opened_at_first_run(window):
        result = paxos_experiment.run_throughput_experiment(
            mode, seed=seed, total_requests=PAXOS_REQUESTS, horizon=PAXOS_HORIZON,
            plan=plan,
        )
    window.close()
    cluster = built[0]
    latencies = sorted(
        latency for service in cluster.services for latency in service.commit_latencies())
    committed = result.committed
    counts = _network_counts(cluster)
    counts.update(_runtime_counts(cluster))
    counts.update({f"chaos.{key}": value for key, value in result.chaos_stats.items()})
    counts.update({
        "sim.events_dispatched": cluster.sim.events_dispatched,
        "apps.paxos.batches": result.batches,
        "apps.paxos.mean_batch": result.mean_batch,
        "apps.paxos.msgs_per_commit": counts["net.messages_sent"] / committed,
        "apps.paxos.bytes_per_commit": counts["net.bytes_sent"] / committed,
        "commit_latency_samples": len(latencies),
    })
    return Outcome(
        window=window, digest=result.state_digest, attempted=result.offered,
        sim={
            "sim_ops_per_s": result.ops_per_sec,
            "commit_latency_sim_p50_s": _quantile(latencies, 0.5),
            "commit_latency_sim_p99_s": _quantile(latencies, 0.99),
            "commit_latency_sim_p999_s": _quantile(latencies, 0.999),
            "failed_share": (result.offered - committed) / result.offered,
        },
        counts=counts,
        work={"commits": committed, "deliveries": counts["net.messages_delivered"],
              "events": cluster.sim.events_dispatched, "sim_s": PAXOS_HORIZON},
        checks={"agreement": result.agreement, "at_most_once": result.at_most_once,
                "live_probes>=3": result.probes >= 3},
    )


def run_paxos_static(seed: int, window: Window) -> Outcome:
    return _run_paxos("static", seed, window)


def run_paxos_amortized(seed: int, window: Window) -> Outcome:
    return _run_paxos("amortized", seed, window)


def run_gossip_1k(seed: int, window: Window) -> Outcome:
    from repro.apps.gossip import (GossipConfig, coverage, delivery_latencies,
                                   make_view_gossip_factory)
    from repro.choice.resolvers import RandomResolver
    from repro.net import ViewConfig, transit_stub
    from repro.statemachine import Cluster, serialization

    n = GOSSIP_STUBS * GOSSIP_STUB_SIZE
    topology = transit_stub(rng=random.Random(seed), n_stubs=GOSSIP_STUBS,
                            stub_size=GOSSIP_STUB_SIZE)
    config = GossipConfig(n=n, rumor_count=GOSSIP_RUMORS, publish_interval=0.1)
    cluster = Cluster(n, make_view_gossip_factory(config, ViewConfig()),
                      topology=topology, seed=seed,
                      resolver_factory=lambda node_id: RandomResolver(seed))
    cluster.sim.trace.enabled = False
    cluster.start_all()
    window.open()
    cluster.run(until=GOSSIP_JOIN_UNTIL)
    joined = perf_counter()
    cluster.run(until=GOSSIP_UNTIL)
    covered = coverage(cluster.services, GOSSIP_RUMORS)
    latencies = sorted(delivery_latencies(cluster.services, config))
    window.close()
    counts = _network_counts(cluster)
    counts["sim.events_dispatched"] = cluster.sim.events_dispatched
    return Outcome(
        window=window,
        digest=serialization.digest({s.node_id: s.checkpoint() for s in cluster.services}),
        attempted=n * GOSSIP_RUMORS,
        sim={
            "rumor_latency_sim_p50_s": _quantile(latencies, 0.5),
            "rumor_latency_sim_p99_s": _quantile(latencies, 0.99),
            "failed_share": 1.0 - covered,
        },
        counts=counts,
        work={"deliveries": counts["net.messages_delivered"],
              "events": cluster.sim.events_dispatched, "sim_s": GOSSIP_UNTIL,
              "join_phase_wall_s": joined - window.opened,
              "steady_phase_wall_s": window.closed - joined},
        checks={"every_service_active": all(s.active for s in cluster.services)},
    )


def run_tree_churn(seed: int, window: Window) -> Outcome:
    from repro.eval import tree_experiment
    from repro.eval.churn_experiment import run_churn_experiment
    from repro.statemachine import serialization

    with _captured_clusters(tree_experiment) as built, \
            _opened_at_first_run(window):
        result = run_churn_experiment("choice-crystalball", n=CHURN_NODES, seed=seed)
    window.close()
    cluster = built[0]
    counts = _network_counts(cluster)
    counts.update(_runtime_counts(cluster))
    counts["sim.events_dispatched"] = cluster.sim.events_dispatched
    return Outcome(
        window=window,
        # Every node's final state and how many trace records of each
        # category the run made (hashing all ~130k records would cost a
        # fifth of the run itself, every repetition).
        digest=serialization.digest({
            "states": {s.node_id: s.checkpoint() for s in cluster.services},
            "trace": dict(cluster.sim.trace.category_counts()),
        }),
        attempted=result.samples * CHURN_NODES,
        sim={
            "tree_mean_depth": result.mean_depth,
            "failed_share": 1.0 - result.mean_attached_fraction,
        },
        counts=counts,
        work={"deliveries": counts["net.messages_delivered"],
              "events": cluster.sim.events_dispatched, "sim_s": cluster.sim.now,
              "states": counts["mc.states_explored"]},
        checks={"mean_attached_fraction>0.8": result.mean_attached_fraction > 0.8,
                "churn_events>=10": result.churn_events >= 10},
    )


def run_mc_bfs(seed: int, window: Window) -> Outcome:
    from repro.apps.randtree import (Join, RandTreeConfig, make_exposed_factory,
                                     randtree_properties)
    from repro.choice.resolvers import RandomResolver
    from repro.mc import ExplorationError, Explorer, InFlightMessage, world_from_services
    from repro.statemachine import Cluster, serialization

    # E7's snapshot: a settled tree, its pending timers and one in-flight
    # join, so exploration has a causal cascade to follow down the tree.
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(BFS_NODES, factory, seed=seed,
                      resolver_factory=lambda node_id: RandomResolver(seed))
    cluster.start_all()
    cluster.run(until=BFS_SETTLE)
    world = world_from_services(cluster.services, cluster.nodes, time=cluster.sim.now)
    world.inflight.append(InFlightMessage(5, 0, Join(joiner=5)))
    explorer = Explorer(factory, properties=randtree_properties(config))
    window.open()
    try:
        result = explorer.bfs(world, max_depth=BFS_DEPTH, max_states=BFS_MAX_STATES)
    except ExplorationError:
        result = None
    window.close()
    if result is None:
        return Outcome(window, digest="", attempted=1, sim={"failed_share": 1.0},
                       checks={"no_exploration_error": False})
    return Outcome(
        window=window,
        digest=serialization.digest([world.digest(), result.states_explored,
                                     result.transitions, result.max_depth]),
        attempted=result.transitions,
        sim={"failed_share": 1.0 if result.truncated else 0.0},
        counts={
            "mc.states_explored": result.states_explored,
            "mc.transitions": result.transitions,
            "mc.dedup_ratio": result.states_explored / result.transitions,
            "mc.pool.hit_rate": explorer.pool.hit_rate,
        },
        work={"states": result.states_explored},
        checks={"not_truncated": not result.truncated,
                "no_violations": not result.violations},
    )


RUNNERS: Dict[str, Callable[[int, Window], Outcome]] = {
    "paxos_static": run_paxos_static,
    "paxos_amortized": run_paxos_amortized,
    "gossip_1k": run_gossip_1k,
    "tree_churn": run_tree_churn,
    "mc_bfs": run_mc_bfs,
}
