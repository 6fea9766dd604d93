"""Fuzz targets: one deterministic execution of a plan against an app.

A :class:`FuzzTarget` knows how to run one :class:`FaultPlan` against
one protocol and report everything the campaign's coverage signal
needs: which safety properties broke live, what the trace looked like
(digest + behavior features), which faults actually landed, and what
consequence prediction foresaw from probe snapshots mid-run.

Two targets ship:

* ``paxos`` — the 5-replica Multi-Paxos WAN workload.  Live safety is
  agreement and at-most-once execution, checked at every probe and at
  the end.  The prediction probes also carry the
  ``near:accepted-coherent`` canary — a *precursor* property whose
  predicted violations sit one or two actions from the current world,
  giving the search a gradient long before agreement itself (which
  needs a full gap-fill round trip) can break.  Every Paxos property is
  the one :mod:`repro.apps.paxos` exports.
* ``randtree`` — an 8-node RandTree join under chaos.  Live safety is
  :func:`~repro.apps.randtree.check_randtree_invariants` (degree
  bound, no self-edges, no consistent-edge cycle), swept twice a
  simulated second; prediction probes use the protocol's own
  CrystalBall property set.

Every check reads the running cluster through one zero-copy
:func:`~repro.mc.cluster_view`.  Executions are pure functions of
``(plan, seed)``: same inputs, same trace digest, same verdict — the
property the shrinker and the corpus replay test rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from ..apps.paxos import (
    ACCEPTED_COHERENT,
    AGREEMENT,
    AT_MOST_ONCE,
    PaxosConfig,
    SAFETY,
    make_paxos_factory,
)
from ..apps.randtree import (
    RandTreeConfig,
    check_randtree_invariants,
    live_states,
    make_baseline_factory,
    randtree_properties,
)
from ..chaos import ChaosController, FaultPlan
from ..chaos.plan import CrashEvent, LinkFaultEvent, PartitionEvent, plan_rng
from ..eval.paxos_experiment import wan_topology
from ..mc import ConsequencePredictor, Explorer, WorldState, cluster_view
from ..sim.trace import trace_digest
from ..statemachine import Cluster
from .coverage import (
    chaos_features,
    near_violation_score,
    prediction_features,
    trace_features,
)
from .mutators import MAX_PROB


@dataclass
class ExecutionResult:
    """Everything one execution tells the campaign."""

    target: str
    seed: int
    plan_digest: str
    trace_digest: str = ""
    violations: List[str] = field(default_factory=list)
    near_violations: Dict[str, int] = field(default_factory=dict)
    min_violation_depth: Optional[int] = None
    features: FrozenSet = frozenset()
    score: float = 0.0
    chaos_stats: Dict[str, int] = field(default_factory=dict)
    # Only populated on keep_cluster executions (forensics re-runs).
    cluster: Optional[Cluster] = None

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    def note(self, now: float, violations: List[str]) -> None:
        """Record each of ``violations`` seen at ``now`` not yet recorded."""
        for violation in violations:
            message = f"t={now:g}: {violation}"
            if message not in self.violations:
                self.violations.append(message)


class FuzzTarget:
    """One app under adversarial scenario search."""

    name = "target"
    n_nodes = 0
    horizon = 0.0
    # Consequence-prediction probe schedule and exploration bounds.
    probe_times: tuple = ()
    chain_depth = 3
    predict_budget = 160

    def random_plan(self, rng: random.Random) -> FaultPlan:
        """Draw a plan from this target's random surface (the baseline
        the guided campaign is benchmarked against)."""
        raise NotImplementedError

    def execute(self, plan: FaultPlan, seed: int, *, probes: bool = True,
                causal: bool = False, keep_cluster: bool = False,
                steering: bool = False) -> ExecutionResult:
        raise NotImplementedError

    def live_violations(self, world: WorldState) -> List[str]:
        """Violations of this target's live safety properties in
        ``world`` (a :func:`~repro.mc.cluster_view` of its cluster)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _finish(
        self,
        result: ExecutionResult,
        cluster: Cluster,
        controller: ChaosController,
        keep_cluster: bool,
    ) -> ExecutionResult:
        for violation in self.live_violations(cluster_view(cluster)):
            result.violations.append(f"t=end: {violation}")
        result.trace_digest = trace_digest(cluster.sim.trace)
        result.chaos_stats = controller.stats()
        features = trace_features(cluster.sim.trace)
        features |= chaos_features(result.chaos_stats)
        features |= {("viol", v.split(":", 1)[0]) for v in result.violations}
        features |= prediction_features(result.near_violations,
                                        result.min_violation_depth)
        result.features = frozenset(features)
        result.score = near_violation_score(
            result.near_violations, result.min_violation_depth, self.chain_depth,
        )
        if keep_cluster:
            result.cluster = cluster
        return result

    def _schedule_probes(
        self,
        cluster: Cluster,
        predictor: Optional[ConsequencePredictor],
        result: ExecutionResult,
        live_check: Optional[Callable[[WorldState], List[str]]],
    ) -> None:
        """Probe at the target's probe times: the live property check
        (``None`` where the target sweeps more often on its own) plus,
        when a predictor is given, a consequence-prediction pass whose
        near-violation counts feed the coverage score."""

        def probe() -> None:
            world = cluster_view(cluster)
            if live_check is not None:
                result.note(cluster.sim.now, live_check(world))
            if predictor is not None:
                report = predictor.predict(world)
                for prop, count in report.near_violations().items():
                    result.near_violations[prop] = (
                        result.near_violations.get(prop, 0) + count
                    )
                depth = report.min_violation_depth()
                if depth is not None:
                    current = result.min_violation_depth
                    result.min_violation_depth = (
                        depth if current is None else min(current, depth)
                    )

        for time in self.probe_times:
            cluster.sim.schedule_at(time, probe, tag="fuzz.probe")


# ----------------------------------------------------------------------
# Paxos target
# ----------------------------------------------------------------------


# How a broken live Paxos property reads in a violation message.
_BROKEN = {
    AGREEMENT.name: "two replicas chose different values",
    AT_MOST_ONCE.name: "a replica applied a command twice",
}


class PaxosFuzzTarget(FuzzTarget):
    """Multi-Paxos over the 5-site WAN, hunting safety violations.

    The interesting adversary couples high message loss (so ``Learn``
    broadcasts miss a majority) with an amnesia crash (so a recovered
    replica gap-fills a slot it already decided) — exactly the surface
    :meth:`random_plan` samples.  Whole batches lose instances at a
    time (re-sequencing must not duplicate or drop commands), ranged
    prepares can race point escalations, and learner catch-up replays
    decided values into recovering replicas.  The choice sets are kept
    small (batch sizes 1/4, pipeline depth 2) so the prediction probes'
    choose-branching stays within the exploration budget.
    """

    name = "paxos"
    n_nodes = 5
    horizon = 16.0
    probe_times = (3.0, 5.0, 7.0)
    chain_depth = 3
    predict_budget = 160

    def __init__(self) -> None:
        self.config = PaxosConfig(
            n=5, request_interval=0.4, requests_per_node=4,
            batch_size_choices=(1, 4), pipeline_depth=2,
            retry_pacing_choices=(1.0, 2.0),
        )
        self.factory = make_paxos_factory(self.config)
        # SAFETY is checked live; the prediction probes add the
        # accepted-coherent canary.
        self.properties = [*SAFETY, ACCEPTED_COHERENT]

    def random_plan(self, rng: random.Random) -> FaultPlan:
        rng = plan_rng(rng, stream="fuzz.surface")
        events: List[Any] = [LinkFaultEvent(
            at=0.0, drop=rng.uniform(0.05, MAX_PROB),
            reorder=rng.uniform(0.0, 0.3), reorder_jitter=0.2,
        )]
        for _ in range(rng.randint(1, 2)):
            at = rng.uniform(1.0, 8.0)
            events.append(CrashEvent(
                at=at, node=rng.randrange(self.n_nodes),
                amnesia=rng.random() < 0.7,
                recover_at=at + rng.uniform(0.1, 2.5),
            ))
        return FaultPlan(events=events)

    def live_violations(self, world: WorldState) -> List[str]:
        return [f"{prop.name}: {_BROKEN[prop.name]}"
                for prop in SAFETY if not prop.holds(world)]

    def execute(self, plan: FaultPlan, seed: int, *, probes: bool = True,
                causal: bool = False, keep_cluster: bool = False,
                steering: bool = False) -> ExecutionResult:
        cluster = Cluster(self.n_nodes, self.factory,
                          topology=wan_topology(self.n_nodes), seed=seed,
                          causal=causal)
        controller = ChaosController(cluster, plan)
        controller.arm()
        if steering:
            from ..runtime import install_crystalball

            install_crystalball(
                cluster, self.factory, set_resolver=False,
                properties=self.properties, checkpoint_period=1.0,
                prediction_period=1.0, chain_depth=self.chain_depth,
                budget=self.predict_budget,
            )
        cluster.start_all()
        result = ExecutionResult(target=self.name, seed=seed,
                                 plan_digest=plan.digest())
        predictor = None
        if probes:
            explorer = Explorer(self.factory, properties=self.properties)
            predictor = ConsequencePredictor(
                explorer, chain_depth=self.chain_depth,
                budget=self.predict_budget,
            )

        self._schedule_probes(cluster, predictor, result, self.live_violations)
        cluster.run(until=self.horizon)
        return self._finish(result, cluster, controller, keep_cluster)


# ----------------------------------------------------------------------
# RandTree target
# ----------------------------------------------------------------------


class RandTreeFuzzTarget(FuzzTarget):
    """An 8-node RandTree join, hunting structural-invariant breaks.

    The known surface: amnesia crashes make a node forget its children
    while they still point at it; combined with a partition during the
    join wave, stale beliefs can close a consistent-edge cycle.
    """

    name = "randtree"
    n_nodes = 8
    horizon = 10.0
    probe_times = (3.0, 5.0, 7.0)
    chain_depth = 2
    predict_budget = 80
    join_spacing = 0.2
    invariant_period = 0.5

    def __init__(self) -> None:
        self.config = RandTreeConfig()
        self.factory = make_baseline_factory(self.config)
        self.properties = randtree_properties(self.config)

    def random_plan(self, rng: random.Random) -> FaultPlan:
        rng = plan_rng(rng, stream="fuzz.surface")
        events: List[Any] = [LinkFaultEvent(
            at=0.0, drop=rng.uniform(0.0, 0.25),
            reorder=rng.uniform(0.0, 0.2), reorder_jitter=0.2,
        )]
        for _ in range(rng.randint(1, 3)):
            at = rng.uniform(0.5, 6.0)
            events.append(CrashEvent(
                at=at, node=rng.randrange(1, self.n_nodes),
                amnesia=rng.random() < 0.8,
                recover_at=at + rng.uniform(0.2, 2.0),
            ))
        if rng.random() < 0.5:
            nodes = list(range(self.n_nodes))
            rng.shuffle(nodes)
            cut = rng.randint(1, self.n_nodes - 1)
            at = rng.uniform(0.5, 5.0)
            events.append(PartitionEvent(
                at=at,
                groups=(tuple(sorted(nodes[:cut])), tuple(sorted(nodes[cut:]))),
                heal_at=at + rng.uniform(0.5, 3.0),
            ))
        return FaultPlan(events=events)

    def live_violations(self, world: WorldState) -> List[str]:
        return check_randtree_invariants(live_states(world), self.config)

    def execute(self, plan: FaultPlan, seed: int, *, probes: bool = True,
                causal: bool = False, keep_cluster: bool = False,
                steering: bool = False) -> ExecutionResult:
        from ..net import transit_stub

        topology = transit_stub(self.n_nodes, random.Random(seed))
        cluster = Cluster(self.n_nodes, self.factory, topology=topology,
                          seed=seed, causal=causal)
        controller = ChaosController(cluster, plan, checkpoint_period=1.0)
        controller.arm()
        if steering:
            from ..runtime import install_crystalball

            install_crystalball(
                cluster, self.factory, set_resolver=False,
                properties=self.properties, checkpoint_period=1.0,
                prediction_period=1.0, chain_depth=self.chain_depth,
                budget=self.predict_budget,
            )
        result = ExecutionResult(target=self.name, seed=seed,
                                 plan_digest=plan.digest())
        predictor = None
        if probes:
            explorer = Explorer(self.factory, properties=self.properties)
            predictor = ConsequencePredictor(
                explorer, chain_depth=self.chain_depth,
                budget=self.predict_budget,
            )
        # The sweep below fires at every probe time too, so the probes
        # only predict.
        self._schedule_probes(cluster, predictor, result, None)

        def invariant_probe() -> None:
            result.note(cluster.sim.now, self.live_violations(cluster_view(cluster)))
            if cluster.sim.now + self.invariant_period <= self.horizon:
                cluster.sim.schedule(self.invariant_period, invariant_probe,
                                     tag="fuzz.invariant")

        cluster.node(self.config.root).start()
        for index, node_id in enumerate(
                nid for nid in range(self.n_nodes) if nid != self.config.root):
            cluster.sim.schedule_at((index + 1) * self.join_spacing,
                                    cluster.node(node_id).start,
                                    tag=f"fuzz.start:{node_id}")
        cluster.sim.schedule(self.invariant_period, invariant_probe,
                             tag="fuzz.invariant")
        cluster.run(until=self.horizon)
        return self._finish(result, cluster, controller, keep_cluster)


TARGETS: Dict[str, Callable[[], FuzzTarget]] = {
    "paxos": PaxosFuzzTarget,
    "randtree": RandTreeFuzzTarget,
}


def make_target(name: str) -> FuzzTarget:
    """Instantiate a registered fuzz target by name."""
    try:
        return TARGETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown fuzz target {name!r}; known: {sorted(TARGETS)}"
        ) from None


__all__ = [
    "ExecutionResult",
    "FuzzTarget",
    "PaxosFuzzTarget",
    "RandTreeFuzzTarget",
    "TARGETS",
    "make_target",
]
