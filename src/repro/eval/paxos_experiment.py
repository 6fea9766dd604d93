"""E6: proposer choice for replicated state machines over WANs.

The Mencius observation the paper cites: a fixed single proposer
"can suffer from reduced performance due to CPU overload or network
congestion" and rotating proposers wins across wide-area networks.  We
run five replicas over a three-region WAN with one poorly-connected
edge replica and measure commit latency per originating node.  One
replica class runs all three designs; each is a resolver of its
``"proposer"`` choice:

* ``fixed`` — :func:`~repro.apps.paxos.leader_resolver` routes every
  command through replica 0;
* ``mencius`` — the default first-candidate resolver: every origin
  proposes its own commands;
* ``choice`` — the runtime's network model picks the proposer with the
  lowest predicted commit latency (for the edge replica that is a
  well-connected *proxy*, beating both hard-coded designs).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps.paxos import (PaxosConfig, SAFETY, leader_resolver, make_paxos_factory,
                          make_proposer_resolver)
from ..mc import cluster_view
from ..obs import collect_cluster_metrics
from ..net import Link, Topology
from ..runtime import install_crystalball
from ..statemachine import Cluster

PAXOS_VARIANTS = ("fixed", "mencius", "choice")

#: Steering modes for :func:`run_throughput_experiment`.  ``off`` is the
#: static default resolver (first candidate), ``static`` the
#: deployment-model resolver, ``amortized`` prediction-driven steering
#: through the :class:`~repro.runtime.AmortizedSteering` scheduler.
STEERING_MODES = ("off", "static", "amortized")


def steering_mode(steering: Any) -> str:
    """Normalize a steering argument (bool or mode name) to a mode.

    ``True``/``False`` keep their historical meaning (``static``/``off``)
    so existing callers and recorded benchmark configs stay valid.
    """
    if steering is True:
        return "static"
    if steering is False:
        return "off"
    if steering in STEERING_MODES:
        return str(steering)
    raise ValueError(
        f"unknown steering mode {steering!r}; expected a bool or one of {STEERING_MODES}"
    )


@dataclass
class PaxosResult:
    """Commit-latency statistics for one run."""

    variant: str
    seed: int
    n: int
    committed: int
    expected: int
    mean_latency: Optional[float]
    p99_latency: Optional[float]
    per_node_mean: Dict[int, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        mean = f"{self.mean_latency * 1000:.0f}ms" if self.mean_latency is not None else "n/a"
        p99 = f"{self.p99_latency * 1000:.0f}ms" if self.p99_latency is not None else "n/a"
        return (
            f"{self.variant:>8}  seed={self.seed}  committed={self.committed}/{self.expected}  "
            f"mean={mean}  p99={p99}"
        )


def wan_topology(n: int) -> Topology:
    """Three-region WAN with one poorly-connected edge replica.

    Replicas 0-1 in region A, 2-3 in region B, 4 at the edge.  Intra-
    region links are 10 ms; A<->B is 80 ms; the edge node reaches B in
    250 ms and A in twice that, so its own consensus rounds are slow
    but a region-B proxy is close.
    """
    if n != 5:
        raise ValueError("the reference WAN scenario is defined for n=5")
    edge_penalty = 0.25
    topo = Topology(n)
    lat = {
        (0, 1): 0.010,
        (2, 3): 0.010,
        (0, 2): 0.080, (0, 3): 0.080, (1, 2): 0.080, (1, 3): 0.080,
        (0, 4): 2 * edge_penalty, (1, 4): 2 * edge_penalty,
        (2, 4): edge_penalty, (3, 4): edge_penalty,
    }
    for (a, b), latency in lat.items():
        topo.set_symmetric(a, b, Link(latency=latency, bandwidth=100e6))
    return topo


DEFAULT_LOADS = (0.15, 0.0, 0.0, 0.0, 0.25)


def build_paxos_cluster(
    config: PaxosConfig,
    seed: int,
    resolver_factory: Optional[Callable[[int], Any]],
    runtime_kwargs: Optional[dict] = None,
    plan: Optional[Any] = None,
    causal: bool = False,
    factory: Optional[Callable[[int], Any]] = None,
) -> Tuple[Cluster, Optional[Any]]:
    """The one Paxos world: ``config.n`` replicas on :func:`wan_topology`,
    built by ``factory`` (default: :func:`make_paxos_factory` of ``config``;
    a fuzz target passes its own ``factory`` attribute) and resolving
    their choices through ``resolver_factory`` (``None``: the first
    candidate).

    ``runtime_kwargs`` installs a CrystalBall runtime per node with
    those settings, its network model bootstrapped from the topology.
    ``plan`` is armed on a chaos controller, returned beside the
    cluster (``None`` without a plan); a plan with an amnesia crash is
    refused, because Paxos safety assumes acceptors keep their promises.
    """
    if plan is not None:
        from ..chaos import ChaosController, CrashEvent

        for event in plan.events:
            if isinstance(event, CrashEvent) and event.amnesia:
                raise ValueError(
                    "amnesia crashes forfeit Paxos safety assumptions; "
                    f"use amnesia=False in {plan.name!r}"
                )
    topology = wan_topology(config.n)
    if factory is None:
        factory = make_paxos_factory(config)
    cluster = Cluster(config.n, factory, topology=topology, seed=seed,
                      resolver_factory=resolver_factory, causal=causal)
    if runtime_kwargs is not None:
        for runtime in install_crystalball(cluster, factory, **runtime_kwargs):
            runtime.network_model.bootstrap_from_topology(topology)
    controller = None
    if plan is not None:
        controller = ChaosController(cluster, plan)
        controller.arm()
    return cluster, controller


def run_paxos_experiment(
    variant: str,
    seed: int = 0,
    requests_per_node: int = 10,
    max_time: float = 60.0,
) -> PaxosResult:
    """Run one replicated-state-machine workload and collect latencies.

    The load model (:data:`DEFAULT_LOADS`) puts CPU load on replica 0
    (hurting the fixed-leader design) and on the edge replica 4
    (hurting Mencius for node 4's own commands); the exposed choice
    routes around both.
    """
    if variant not in PAXOS_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {PAXOS_VARIANTS}")
    n = 5
    config = PaxosConfig(
        n=n, request_interval=0.5, requests_per_node=requests_per_node,
        processing_delays=DEFAULT_LOADS,
        # Room for every command at once: no proposer ever waits on its
        # pipeline, so the CPU queue alone paces a loaded one.
        pipeline_depth=n * requests_per_node,
    )
    resolver_factory = runtime_kwargs = None
    if variant == "fixed":
        resolver = leader_resolver(0)
        resolver_factory = lambda node_id: resolver
    elif variant == "choice":
        resolver_factory = lambda node_id: make_proposer_resolver()
        runtime_kwargs = dict(set_resolver=False, checkpoint_period=0.0,
                              prediction_period=0.0)
    cluster, _ = build_paxos_cluster(config, seed, resolver_factory, runtime_kwargs)
    cluster.start_all()
    cluster.run(until=max_time)

    latencies: List[float] = []
    per_node: Dict[int, float] = {}
    committed = 0
    for service in cluster.services:
        node_latencies = service.commit_latencies()
        committed += len(node_latencies)
        latencies.extend(node_latencies)
        if node_latencies:
            per_node[service.node_id] = statistics.mean(node_latencies)
    latencies.sort()
    expected = n * requests_per_node
    return PaxosResult(
        variant=variant,
        seed=seed,
        n=n,
        committed=committed,
        expected=expected,
        mean_latency=statistics.mean(latencies) if latencies else None,
        p99_latency=latencies[int(0.99 * (len(latencies) - 1))] if latencies else None,
        per_node_mean=per_node,
        metrics=collect_cluster_metrics(cluster),
    )


@dataclass
class ThroughputResult:
    """One batched Multi-Paxos run under load (and chaos)."""

    steering: bool  # kept for compat: mode != "off"
    seed: int
    n: int
    plan_name: str
    horizon: float
    offered: int
    committed: int
    client_committed: int
    ops_per_sec: float
    batches: int
    mean_batch: float
    agreement: bool
    at_most_once: bool
    probes: int
    state_digest: str
    mode: str = "off"
    chaos_stats: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def safe(self) -> bool:
        """Agreement and at-most-once held at every probe and at the end."""
        return self.agreement and self.at_most_once

    def summary(self) -> str:
        mode = f"steer-{self.mode:<9}"
        status = "SAFE" if self.safe else "VIOLATED"
        return (
            f"{mode}  seed={self.seed}  plan={self.plan_name:<14}"
            f"committed={self.committed}/{self.offered}  "
            f"{self.ops_per_sec:,.0f} ops/s  mean_batch={self.mean_batch:.1f}  {status}"
        )


# Sim-seconds between the throughput run's in-flight safety probes.
_PROBE_PERIOD = 5.0


def run_throughput_experiment(
    steering: Any,
    seed: int = 0,
    total_requests: int = 100_000,
    horizon: float = 60.0,
    plan: Optional[Any] = None,
    stream: Optional[Any] = None,
    telemetry_cadence: float = 1.0,
) -> ThroughputResult:
    """T1: committed-ops throughput of batched Multi-Paxos under load.

    A :class:`~repro.apps.paxos.ClientLoad` generator offers
    ``total_requests`` commands closed-loop to five replicas, loaded
    with :data:`DEFAULT_LOADS`, over the reference WAN while an A7
    chaos plan (default: ``message-chaos``; amnesia is rejected, see
    :func:`build_paxos_cluster`) runs against the cluster.  ``steering``
    picks how the exposed batch-size / proposer / retry-pacing choices
    resolve:

    * ``"off"`` (or ``False``) — the static default (first candidate:
      batch size 1, local proposer), the legacy unbatched behaviour;
    * ``"static"`` (or ``True``) — the deployment-model resolver,
      precomputed from topology and configured loads;
    * ``"amortized"`` — prediction-driven steering through the
      :class:`~repro.runtime.AmortizedSteering` scheduler: a full
      CrystalBall runtime is installed per node, scored prediction
      rounds distill candidate rankings against a committed-work
      objective (:class:`~repro.apps.paxos.ThroughputObjective`), and
      the hot path answers from coalesced answers / rankings, degrading
      to the ``static`` resolver when the policy is stale or the
      scheduler's default budget is spent.
      Cluster-wide scheduler counters land in ``metrics["steering"]``.
      Checkpoint gossip is off (``checkpoint_period=0``):
      the committed-work objective scores local queue drain, and at
      10^5-request scale periodically snapshotting ever-growing decided
      logs would dominate the run — prediction rounds replay from the
      local captured dispatch only.

    Safety is probed every 5 sim-seconds *during* the run and
    once at the end: cross-replica agreement and at-most-once execution
    must hold throughout.  Tracing is disabled (10^5-request runs would
    swamp it); reproducibility is asserted over ``state_digest``, a
    digest of every replica's decided log and execution order.

    ``stream=`` (a path or an open :class:`~repro.obs.RunStream`) makes
    the run observable *while executing*: a
    :class:`~repro.obs.TelemetrySampler` emits per-second offered /
    committed / conflict curves as ``sample`` records, every safety
    probe and chaos burst boundary as ``event`` records, and the
    headline result as the final ``summary`` (tail it live with
    ``python -m repro.cli tail <path> --follow``); the sampled series
    is also returned under ``metrics["telemetry"]``.  Sampling is
    digest-neutral: the sampler rides the event queue on its own tag,
    reads state without touching it, and draws no RNG, so
    ``state_digest`` is byte-identical with streaming on or off
    (``benchmarks/bench_o3_stream.py`` asserts it).
    """
    from ..apps.paxos import ClientLoad, ThroughputObjective, make_throughput_resolver
    from ..obs import TelemetrySampler, as_stream
    from ..runtime import merge_steering_snapshots
    from ..statemachine.serialization import digest

    mode = steering_mode(steering)
    steering = mode != "off"
    n = 5
    config = PaxosConfig(n=n, requests_per_node=0, processing_delays=DEFAULT_LOADS)
    if plan is None:
        from .chaos_experiment import standard_plans

        plan = standard_plans(n, horizon, amnesia=False)[0]
    resolver_factory = runtime_kwargs = None
    if mode == "static":
        resolver = make_throughput_resolver(wan_topology(n), config)
        resolver_factory = lambda node_id: resolver
    elif mode == "amortized":
        runtime_kwargs = dict(
            set_resolver=True, checkpoint_period=0.0, prediction_period=0.0,
            objective=ThroughputObjective(), steering_policy=True,
            fallback=make_throughput_resolver(wan_topology(n), config),
        )
    cluster, controller = build_paxos_cluster(
        config, seed, resolver_factory, runtime_kwargs=runtime_kwargs, plan=plan)
    cluster.sim.trace.enabled = False
    load = ClientLoad(cluster, total_requests)

    run_stream = as_stream(
        stream, kind="t1", clock=lambda: cluster.sim.now,
        config={
            "steering": steering, "mode": mode, "seed": seed, "n": n,
            "total_requests": total_requests, "horizon": horizon,
            "plan": plan.name or "custom", "cadence": telemetry_cadence,
        },
    )
    # A caller-owned RunStream (e.g. a sweep sharing one file across
    # runs) keeps its lifecycle: we emit events but not the summary.
    owns_stream = run_stream is not None and run_stream is not stream
    sampler: Optional[TelemetrySampler] = None
    if run_stream is not None:
        sampler = TelemetrySampler(
            cluster.sim, cadence=telemetry_cadence, stream=run_stream,
        )
        sampler.watch("ops.offered", load.offered, agg="last")
        sampler.watch(
            "ops.committed",
            lambda: max(len(s.executed) for s in cluster.services), agg="last",
        )
        sampler.watch(
            "ops.client_committed",
            lambda: sum(load.committed().values()), agg="last",
        )
        sampler.watch(
            "paxos.conflicts",
            lambda: round(sum(s.recent_conflicts for s in cluster.services), 4),
            agg="mean",
        )
        sampler.watch(
            "net.messages_sent", lambda: cluster.network.messages_sent, agg="last",
        )

    safety = {"agreement": True, "at_most_once": True, "probes": 0}

    def probe() -> None:
        safety["probes"] += 1
        world = cluster_view(cluster)
        agreement, at_most_once = (prop.holds(world) for prop in SAFETY)
        safety["agreement"] = safety["agreement"] and agreement
        safety["at_most_once"] = safety["at_most_once"] and at_most_once
        if run_stream is not None:
            run_stream.write_event(
                "safety.probe", t=cluster.sim.now,
                probe=safety["probes"], agreement=agreement,
                at_most_once=at_most_once,
            )

    cluster.start_all()
    load.arm()
    cluster.sim.every(_PROBE_PERIOD, probe, horizon, "throughput.probe")
    if sampler is not None:
        sampler.start(until=horizon)
    cluster.run(until=horizon)

    probe()  # final check at the horizon
    from ..apps.paxos import NOOP, unpack_value

    best = max(cluster.services, key=lambda s: len(s.executed))
    committed = len(best.executed)
    batch_sizes = [
        len(unpack_value(value))
        for value in best.chosen.values()
        if tuple(value) != NOOP
    ]
    batches = sum(1 for b in batch_sizes if b > 0)
    state_digest = digest({
        s.node_id: {"chosen": s.chosen, "executed": s.executed}
        for s in cluster.services
    })
    metrics = collect_cluster_metrics(cluster)
    if mode == "amortized":
        metrics["steering"] = merge_steering_snapshots(
            node.crystalball.amortized.snapshot() for node in cluster.nodes)
    if sampler is not None:
        sampler.stop()
        metrics["telemetry"] = sampler.snapshot()
    if run_stream is not None:
        summary_data = dict(
            steering=steering, mode=mode, seed=seed, plan=plan.name or "custom",
            offered=load.offered(), committed=committed,
            ops_per_sec=round(committed / horizon, 3) if horizon > 0 else 0.0,
            agreement=safety["agreement"], at_most_once=safety["at_most_once"],
            probes=safety["probes"], state_digest=state_digest,
        )
        if owns_stream:
            run_stream.write_summary(t=cluster.sim.now, **summary_data)
        else:
            run_stream.write_event("t1.done", t=cluster.sim.now, **summary_data)
    return ThroughputResult(
        steering=steering,
        mode=mode,
        seed=seed,
        n=n,
        plan_name=plan.name or "custom",
        horizon=horizon,
        offered=load.offered(),
        committed=committed,
        client_committed=sum(load.committed().values()),
        ops_per_sec=committed / horizon if horizon > 0 else 0.0,
        batches=batches,
        mean_batch=(sum(batch_sizes) / batches) if batches else 0.0,
        agreement=safety["agreement"],
        at_most_once=safety["at_most_once"],
        probes=safety["probes"],
        state_digest=state_digest,
        chaos_stats=controller.stats(),
        metrics=metrics,
    )


__all__ = ["PAXOS_VARIANTS", "STEERING_MODES", "DEFAULT_LOADS", "PaxosResult",
           "ThroughputResult", "steering_mode", "wan_topology",
           "run_paxos_experiment", "run_throughput_experiment"]
