"""E6: causal tracing and violation forensics, end to end.

The demonstration the paper's debugging story needs: run the exposed-
choice Paxos workload with causal tracing on, let the CrystalBall
runtime predict a violation of a *canary* property and steer away from
it, then reconstruct — from the stamped trace alone — the minimal
causal explanation of every steering decision: the chain from the
resolved proposer choice, through the Accept it produced, to the
delivery the runtime refused.

Two named sessions:

* ``e6`` — clean network: pure steering forensics.
* ``a7`` — the A7 ``message-chaos`` plan armed on top (drops,
  duplicates, reordering): explanations must still resolve, and
  duplicated deliveries must be attributable to their original sends.

The canary property is deliberately artificial: replica ``n-1`` must
never accept a value.  Any proposal violates it within prediction
depth, which makes steering deterministic and the forensics chain
short enough to assert on — the point is the *explanation machinery*,
not Paxos itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..apps.paxos import PaxosConfig
from ..mc import SafetyProperty
from ..obs import (
    CausalExplanation,
    HappensBeforeGraph,
    explain_steering,
    explain_violation,
)
from ..sim.trace import trace_digest
from .chaos_experiment import standard_plans
from .paxos_experiment import build_paxos_cluster

TRACE_EXPERIMENTS = ("e6", "a7")


def canary_property(node: int) -> SafetyProperty:
    """Replica ``node`` must never accept a value (a tripwire).

    Worlds that do not include the canary node are vacuously safe —
    checkpoints may not have arrived yet.
    """
    def holds(world: Any) -> bool:
        if node not in world.node_states:
            return True
        return not world.state_of(node).get("accepted")
    return SafetyProperty(f"canary-quiet-acceptor-{node}", holds)


@dataclass
class TraceSession:
    """Everything one causal-forensics run produced."""

    experiment: str
    seed: int
    n: int
    plan_name: str
    canary: int
    filtered: int = 0
    canary_safe: bool = True
    events: int = 0
    duplicate_deliveries: int = 0
    retries: int = 0
    trace_digest: str = ""
    steering: List[CausalExplanation] = field(default_factory=list)
    violations: List[CausalExplanation] = field(default_factory=list)
    graph: Optional[HappensBeforeGraph] = None
    cluster: Optional[Any] = None
    prediction: Optional[dict] = None

    def best_explanation(self) -> Optional[CausalExplanation]:
        """The explanation a CLI/artifact should lead with: the first
        steering decision, else the first predicted violation."""
        if self.steering:
            return self.steering[0]
        if self.violations:
            return self.violations[0]
        return None

    def summary(self) -> str:
        return (
            f"{self.experiment}  seed={self.seed}  plan={self.plan_name:<16}"
            f"events={self.events}  steered={len(self.steering)}  "
            f"predicted={len(self.violations)}  dups={self.duplicate_deliveries}  "
            f"retries={self.retries}  "
            f"canary={'SAFE' if self.canary_safe else 'TRIPPED'}"
        )


# Explanations kept per kind (steering decisions, predicted violations).
MAX_EXPLAINED = 5


def run_trace_session(
    experiment: str,
    seed: int = 1,
    keep_cluster: bool = False,
) -> TraceSession:
    """Run one causal-forensics session and explain what was steered.

    The exposed-choice Paxos cluster (five replicas, two requests each
    1.5 s apart, 8 simulated seconds) runs with ``causal=True`` and a
    CrystalBall runtime per node guarding the canary property; ``a7``
    additionally arms the A7 ``message-chaos`` fault plan.  After the
    run, one final prediction on the canary node supplies predicted
    violations for :func:`~repro.obs.explain_violation`, and every
    ``runtime.steer.explain`` record becomes a steering explanation.
    """
    if experiment not in TRACE_EXPERIMENTS:
        raise ValueError(
            f"unknown trace experiment {experiment!r}; pick from {TRACE_EXPERIMENTS}"
        )
    n, max_time = 5, 8.0
    canary = n - 1
    config = PaxosConfig(
        n=n, request_interval=1.5, requests_per_node=2,
        # Expose the proposer alone: every explanation roots there.
        batch_size_choices=(1,), retry_pacing_choices=(1.0,),
    )
    plan = standard_plans(n, max_time)[0] if experiment == "a7" else None  # message-chaos
    cluster, _ = build_paxos_cluster(
        config, seed, None,
        runtime_kwargs=dict(
            set_resolver=False,  # live choices use the plain first-candidate
            # resolver: deterministic, cheap, and still recorded as
            # choice.resolve events for forensics to root chains at.
            properties=[canary_property(canary)],
            checkpoint_period=0.25, prediction_period=0.6, chain_depth=3, budget=900,
        ),
        plan=plan, causal=True,
    )
    plan_name = plan.name if plan is not None else "clean"
    cluster.start_all()
    cluster.run(until=max_time)

    # One last prediction from the canary node's current world: its
    # violations feed the violation-forensics path (steering already
    # happened inline during the run).
    report = cluster.nodes[canary].crystalball.run_prediction()

    trace = cluster.sim.trace
    graph = HappensBeforeGraph.from_trace(trace)
    steering = explain_steering(trace, graph)[:MAX_EXPLAINED]
    # Prefer violations whose predicted path involves messages: their
    # deliveries anchor to live sends, which gives the explanation a
    # non-empty causal prefix (timer-only paths are pure hypotheticals).
    predicted = [v for o in report.outcomes for v in o.violations]
    predicted.sort(
        key=lambda v: sum(
            1 for a in v.path if getattr(a, "msg", None) is not None
        ),
        reverse=True,
    )
    violations = [
        explain_violation(trace, violation, graph)
        for violation in predicted[:MAX_EXPLAINED]
    ]

    session = TraceSession(
        experiment=experiment,
        seed=seed,
        n=n,
        plan_name=plan_name,
        canary=canary,
        filtered=sum(node.crystalball.steering.filtered_count for node in cluster.nodes),
        canary_safe=not cluster.services[canary].accepted,
        events=len(graph),
        duplicate_deliveries=sum(
            1 for e in graph.by_category("net.deliver") if e.dup
        ),
        retries=trace.count("net.retry"),
        trace_digest=trace_digest(trace),
        steering=steering,
        violations=violations,
        graph=graph,
        prediction=report.summary(),
    )
    if keep_cluster:
        session.cluster = cluster
    return session


__all__ = [
    "TRACE_EXPERIMENTS",
    "TraceSession",
    "canary_property",
    "run_trace_session",
]
