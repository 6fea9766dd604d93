"""A7: safety under chaos.

The chaos engine (``repro.chaos``) makes the adversary explicit:
randomized but fully deterministic :class:`FaultPlan` schedules of
drops, duplicates, reordering, corruption, flapping links, partitions,
and crash-recovery with amnesia.  This harness sweeps those plans
against the two protocols the paper studies and checks what must
*never* break:

* RandTree — the overlay stays structurally sane throughout the run:
  no self-loops, no duplicate child entries, bounded degree, and no
  cycle among *consistent* parent/child edges (transient one-sided
  beliefs are allowed; a mutually-agreed cycle is not).
* Paxos — at most one value is chosen per instance, across every
  replica ("single decree"), and no replica applies a command twice:
  the property list :data:`repro.apps.paxos.SAFETY` that T1's live
  probes check too.

Each run also produces a trace digest (:func:`repro.sim.trace.trace_digest`).
Two runs of the same ``(configuration, seed)`` must produce
byte-identical digests — the determinism contract that makes a chaos
failure replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..apps.paxos import SAFETY, PaxosConfig
from ..apps.randtree import (
    RandTreeConfig,
    check_randtree_invariants,
    live_states,
    max_tree_depth,
    tree_depths,
)
from ..chaos import (
    ChaosController,
    ClockSkewEvent,
    CrashEvent,
    FaultPlan,
    FlapEvent,
    LinkFaultEvent,
    PartitionEvent,
    ReliabilityConfig,
    SlowNodeEvent,
    random_fault_plan,
    reliable_transport,
)
from ..mc import cluster_view
from ..obs import collect_cluster_metrics
from ..sim.trace import trace_digest
from .paxos_experiment import build_paxos_cluster
from .tree_experiment import VARIANTS, build_tree_cluster, join_staggered

CHAOS_TREE_VARIANTS = VARIANTS


# ----------------------------------------------------------------------
# Standard plans (the named sweep)
# ----------------------------------------------------------------------


def standard_plans(
    n: int,
    horizon: float,
    amnesia: bool = True,
    protect: tuple = (0,),
) -> List[FaultPlan]:
    """The three named plans every chaos sweep exercises.

    * ``message-chaos`` — sustained drop/duplicate/reorder/corrupt on
      every link, no topology events;
    * ``flap-partition`` — a flapping link plus a partition that heals;
    * ``crash-recovery`` — two crashes (one with amnesia when allowed)
      with staggered recovery, a slow node, and clock skew.

    ``protect`` nodes are never crashed and stay on the majority side
    of partitions.  All plans finish (heal/recover) by ``0.7 *
    horizon`` so runs can assert on converged end states.
    """
    mid = horizon / 2.0
    victims = [v for v in range(n) if v not in protect]
    side_b = victims[-max(1, n // 3):]
    side_a = [v for v in range(n) if v not in side_b]
    plans = [
        FaultPlan(name="message-chaos", events=[
            LinkFaultEvent(at=0.0, drop=0.08, duplicate=0.05, reorder=0.15,
                           reorder_jitter=0.25, corrupt=0.02),
        ]),
        FaultPlan(name="flap-partition", events=[
            FlapEvent(at=0.0, a=victims[0], b=victims[1] if len(victims) > 1
                      else protect[0], period=1.5, duty=0.4, until=0.6 * horizon),
            PartitionEvent(at=0.25 * horizon,
                           groups=(tuple(side_a), tuple(side_b)),
                           heal_at=0.55 * horizon),
            LinkFaultEvent(at=0.0, drop=0.03, reorder=0.05, reorder_jitter=0.1),
        ]),
        FaultPlan(name="crash-recovery", events=[
            CrashEvent(at=0.2 * horizon, node=victims[-1], amnesia=amnesia,
                       recover_at=0.45 * horizon),
            CrashEvent(at=0.3 * horizon, node=victims[len(victims) // 2],
                       amnesia=False, recover_at=0.6 * horizon),
            SlowNodeEvent(at=0.1 * horizon, node=victims[0], delay=0.05,
                          until=mid),
            ClockSkewEvent(at=0.0, node=victims[0], offset=0.3),
            LinkFaultEvent(at=0.0, drop=0.04, duplicate=0.03,
                           reorder=0.08, reorder_jitter=0.15),
        ]),
    ]
    return plans


# ----------------------------------------------------------------------
# RandTree under chaos
# ----------------------------------------------------------------------


@dataclass
class ChaosTreeResult:
    """One RandTree run under one fault plan."""

    variant: str
    seed: int
    n: int
    plan_name: str
    reliable: bool
    final_depth: int = 0
    joined: int = 0
    probes: int = 0
    violations: List[str] = field(default_factory=list)
    trace_digest: str = ""
    chaos_stats: Dict[str, int] = field(default_factory=dict)
    reliable_stats: Optional[Dict[str, int]] = None
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def safe(self) -> bool:
        """No structural invariant was ever violated."""
        return not self.violations

    def summary(self) -> str:
        rel = " +reliable" if self.reliable else ""
        status = "SAFE" if self.safe else f"{len(self.violations)} VIOLATIONS"
        return (
            f"{self.variant:>20}{rel}  seed={self.seed}  plan={self.plan_name:<16}"
            f"depth={self.final_depth}  joined={self.joined}/{self.n}  "
            f"probes={self.probes}  {status}"
        )


# A chaos-tree run's join spacing, and the sim-seconds between two
# structural-invariant probes and between the controller's checkpoints.
JOIN_SPACING, PROBE_PERIOD, CHAOS_CHECKPOINT_PERIOD = 0.2, 0.5, 1.0


def run_chaos_tree_experiment(
    variant: str,
    seed: int = 0,
    n: int = 15,
    plan: Optional[FaultPlan] = None,
    reliability: Optional[ReliabilityConfig] = None,
    settle: float = 8.0,
) -> ChaosTreeResult:
    """Join a RandTree while a fault plan runs against it.

    Nodes join staggered by :data:`JOIN_SPACING`; the plan (default: a
    randomized plan drawn from the run's seed) is armed from t=0; a
    probe checks the structural invariants every :data:`PROBE_PERIOD`
    simulated seconds; the run lasts until every plan event has healed
    plus ``settle``.  Pass a :class:`ReliabilityConfig` to wrap the
    transport in the at-least-once layer.
    """
    cfg = RandTreeConfig()
    join_time = n * JOIN_SPACING
    if plan is None:
        # Named-stream derivation (chaos.plan), so plan draws stay
        # stable no matter what other consumers the run adds.
        plan = random_fault_plan(
            seed, n, duration=join_time + settle,
            protect=(cfg.root,),
        )
    wrapper = reliable_transport(reliability) if reliability is not None else None
    cluster = build_tree_cluster(variant, n, seed, cfg, transport_wrapper=wrapper)
    controller = ChaosController(cluster, plan, checkpoint_period=CHAOS_CHECKPOINT_PERIOD)
    controller.arm()

    result = ChaosTreeResult(
        variant=variant, seed=seed, n=n, plan_name=plan.name or "custom",
        reliable=reliability is not None,
    )
    horizon = max(plan.horizon, join_time) + settle

    def probe() -> None:
        states = live_states(cluster_view(cluster))
        result.probes += 1
        for violation in check_randtree_invariants(states, cfg):
            result.violations.append(f"t={cluster.sim.now:g}: {violation}")

    join_staggered(cluster, cfg.root, JOIN_SPACING, "chaos.start")
    cluster.sim.every(PROBE_PERIOD, probe, horizon, "chaos.probe")
    cluster.run(until=horizon)

    states = live_states(cluster_view(cluster))
    result.final_depth = max_tree_depth(states, cfg.root)
    result.joined = len(tree_depths(states, cfg.root))
    for violation in check_randtree_invariants(states, cfg):
        result.violations.append(f"t=end: {violation}")
    result.trace_digest = trace_digest(cluster.sim.trace)
    result.chaos_stats = controller.stats()
    if reliability is not None:
        result.reliable_stats = cluster.transport.stats
    result.metrics = collect_cluster_metrics(cluster)
    return result


# ----------------------------------------------------------------------
# Paxos under chaos
# ----------------------------------------------------------------------


@dataclass
class ChaosPaxosResult:
    """One Paxos run under one fault plan."""

    seed: int
    plan_name: str
    agreement: bool
    at_most_once: bool
    committed: int = 0
    expected: int = 0
    trace_digest: str = ""
    chaos_stats: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def safe(self) -> bool:
        """Agreement and at-most-once held across all replicas."""
        return self.agreement and self.at_most_once

    def summary(self) -> str:
        status = "SAFE" if self.safe else "VIOLATED"
        return (
            f"   paxos  seed={self.seed}  plan={self.plan_name:<16}"
            f"committed={self.committed}/{self.expected}  {status}"
        )


def run_chaos_paxos_experiment(
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    requests_per_node: int = 6,
    max_time: float = 30.0,
) -> ChaosPaxosResult:
    """Run the WAN Paxos workload with a fault plan armed against it.

    Amnesia is never injected here: Paxos safety *assumes* acceptors
    persist promises, so crashes recover from stable storage (the
    controller's no-checkpoint degradation).  What chaos attacks is
    everything else — message loss, duplication, reordering,
    partitions, flapping links — and agreement and at-most-once
    execution (:data:`repro.apps.paxos.SAFETY`) must survive all of it.
    """
    n = 5
    if plan is None:
        plan = random_fault_plan(
            seed, n, duration=0.7 * max_time,
            amnesia_prob=0.0, crashes=1, name="random-paxos",
        )
    config = PaxosConfig(n=n, request_interval=0.5, requests_per_node=requests_per_node)
    cluster, controller = build_paxos_cluster(config, seed, None, plan=plan)
    cluster.start_all()
    cluster.run(until=max_time)

    committed = sum(len(s.commit_latencies()) for s in cluster.services)
    world = cluster_view(cluster)
    agreement, at_most_once = (prop.holds(world) for prop in SAFETY)
    return ChaosPaxosResult(
        seed=seed,
        plan_name=plan.name or "custom",
        agreement=agreement,
        at_most_once=at_most_once,
        committed=committed,
        expected=n * requests_per_node,
        trace_digest=trace_digest(cluster.sim.trace),
        chaos_stats=controller.stats(),
        metrics=collect_cluster_metrics(cluster),
    )


# ----------------------------------------------------------------------
# Reliability recovers the loss-free outcome
# ----------------------------------------------------------------------


@dataclass
class ReliableJoinComparison:
    """E2 join outcome: loss-free vs lossy vs lossy-with-reliability."""

    seed: int
    n: int
    loss: float
    depth_loss_free: int = 0
    joined_loss_free: int = 0
    depth_reliable: int = 0
    joined_reliable: int = 0
    reliable_stats: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def recovered(self) -> bool:
        """The reliable run matches the loss-free outcome."""
        return (
            self.depth_reliable == self.depth_loss_free
            and self.joined_reliable == self.joined_loss_free
        )

    def summary(self) -> str:
        status = "RECOVERED" if self.recovered else "DEGRADED"
        return (
            f"seed={self.seed}  loss={self.loss:.0%}  "
            f"loss-free: depth={self.depth_loss_free} joined={self.joined_loss_free}/{self.n}  "
            f"reliable: depth={self.depth_reliable} joined={self.joined_reliable}/{self.n}  "
            f"{status}"
        )


def run_reliable_join_comparison(
    seed: int = 0,
    n: int = 15,
    loss: float = 0.10,
    settle: float = 10.0,
) -> ReliableJoinComparison:
    """E2 join with and without chaos loss, reliability layer on.

    The claim under test: at-least-once delivery masks adversarial
    message loss — with ``loss`` injected on every link and the
    reliability layer enabled, the baseline tree converges to the same
    final depth and membership as the loss-free run of the identical
    configuration and seed.
    """
    clean = run_chaos_tree_experiment(
        "baseline", seed=seed, n=n, plan=FaultPlan(name="loss-free"), settle=settle,
    )
    lossy_plan = FaultPlan(name=f"loss-{loss:.0%}", events=[
        LinkFaultEvent(at=0.0, drop=loss),
    ])
    reliability = ReliabilityConfig(timeout=0.15, backoff=1.6, max_retries=8)
    masked = run_chaos_tree_experiment(
        "baseline", seed=seed, n=n, plan=lossy_plan, reliability=reliability, settle=settle,
    )
    return ReliableJoinComparison(
        seed=seed, n=n, loss=loss,
        depth_loss_free=clean.final_depth, joined_loss_free=clean.joined,
        depth_reliable=masked.final_depth, joined_reliable=masked.joined,
        reliable_stats=masked.reliable_stats or {},
        metrics=masked.metrics,
    )


__all__ = [
    "CHAOS_TREE_VARIANTS",
    "ChaosPaxosResult",
    "ChaosTreeResult",
    "ReliableJoinComparison",
    "run_chaos_paxos_experiment",
    "run_chaos_tree_experiment",
    "run_reliable_join_comparison",
    "standard_plans",
]
