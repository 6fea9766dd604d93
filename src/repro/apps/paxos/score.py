"""Model-based scoring for the exposed proposer choice.

Predicted commit latency of routing a command through proposer ``p``::

    rtt(origin, p)            # forward the command + learn the result
  + majority_rtt(p)           # one accept round to a majority

where ``majority_rtt(p)`` is the round-trip to the (majority-1)-th
closest other replica — the accept round completes when that many
acceptors besides ``p`` itself have replied.  The resolver picks the
proposer minimizing this estimate using the runtime's network model,
which is the paper's "let the runtime pick the best proposer for
high-performance across a range of deployment settings".

E6's three designs are three resolvers of that one choice: the default
first-candidate resolver (Mencius: the candidates start with the origin
itself), :func:`leader_resolver` (fixed leader) and
:func:`make_proposer_resolver` (the exposed choice).
"""

from __future__ import annotations

from typing import Any, Optional

from ...choice.choicepoint import ChoicePoint
from ...choice.objectives import Objective
from ...choice.resolvers import GreedyResolver


class ThroughputObjective(Objective):
    """Committed-work objective for prediction-driven batching.

    Scores a (hypothetical) world by how much replicated work it has
    gotten done: executed commands count fully, chosen-but-unexecuted
    batches count partially, and commands still waiting in a pending
    queue cost a small penalty.  Under this objective a scored
    prediction round prefers candidates that drain queues into decided
    instances — large batches when the queue is deep, cheap proposers,
    calmer retry pacing under conflict — which is exactly the T2
    amortized-steering workload's notion of "better".
    """

    name = "paxos-throughput"

    def __init__(self, chosen_weight: float = 0.5,
                 pending_penalty: float = 0.05) -> None:
        self.chosen_weight = chosen_weight
        self.pending_penalty = pending_penalty

    def score(self, world: Any) -> float:
        total = 0.0
        for state in world.node_states.values():
            executed = state.get("executed")
            if executed is not None:
                total += len(executed)
            chosen = state.get("chosen")
            if chosen is not None:
                total += self.chosen_weight * len(chosen)
            pending = state.get("pending")
            if pending is not None:
                total -= self.pending_penalty * len(pending)
        return total


def predicted_commit_latency(
    network_model,
    origin: int,
    proposer: int,
    n: int,
    processing_delay: float = 0.0,
) -> float:
    """Predicted end-to-end commit latency via ``proposer``.

    ``processing_delay`` is the proposer's per-proposal CPU cost (in a
    real deployment the runtime would estimate it from collected load
    measurements; here it comes from the configured load model).
    """
    majority = n // 2 + 1
    forward = 0.0 if proposer == origin else network_model.rtt(origin, proposer)
    rtts = sorted(
        network_model.rtt(proposer, peer) for peer in range(n) if peer != proposer
    )
    needed = majority - 1  # the proposer itself accepts locally
    majority_rtt = rtts[needed - 1] if needed >= 1 and rtts else 0.0
    return forward + processing_delay + majority_rtt


def proposer_score(candidate: int, point: ChoicePoint, node: Optional[Any]) -> float:
    """Negated predicted commit latency (higher is better) of a
    ``"proposer"`` candidate; every other choice scores 0, so the greedy
    tie rule keeps its first candidate."""
    runtime = getattr(node, "crystalball", None) if node is not None else None
    if runtime is None or point.label != "proposer":
        return 0.0
    config = node.service.config
    return -predicted_commit_latency(
        runtime.network_model, node.node_id, candidate, config.n,
        processing_delay=config.processing_delay(candidate),
    )


def make_proposer_resolver() -> GreedyResolver:
    """The exposed choice: the proposer minimizing predicted commit
    latency."""
    return GreedyResolver(proposer_score)


def leader_resolver(leader: int) -> GreedyResolver:
    """The classic fixed-leader deployment: ``leader`` proposes every
    batch, and every other choice keeps its first candidate."""
    return GreedyResolver(
        lambda candidate, point, node: float(point.label == "proposer" and candidate == leader))


def make_throughput_resolver(topology, config) -> GreedyResolver:
    """Steering for batched Multi-Paxos at high request rates.

    Full consequence prediction is too expensive to run per-batch at
    10^5-request scale, so this resolver steers from the deployment
    model alone: topology round-trips and configured CPU loads,
    precomputed once.  It scores the three choices the replica exposes:

    * ``batch-size`` — pull as much of the queue as fits, backing off
      under observed conflict (big speculative batches lose whole
      instances at a time when preempted);
    * ``proposer`` — minimize forward latency plus the candidate's
      pipeline-serialized CPU cost and per-slot accept round-trip
      (routes a loaded or edge replica's batches through a cheap
      proxy, the Section 3.1 example at batch granularity);
    * ``retry-pacing`` — stretch the retry timeout in proportion to
      observed conflict, de-synchronizing dueling proposers.
    """
    n = config.n
    depth = max(config.pipeline_depth, 1)

    def rtt(a: int, b: int) -> float:
        if a == b:
            return 0.0
        return topology.link(a, b).latency + topology.link(b, a).latency

    majority_rtt = {}
    needed = config.majority - 1  # the proposer itself accepts locally
    for p in range(n):
        rtts = sorted(rtt(p, peer) for peer in range(n) if peer != p)
        majority_rtt[p] = rtts[needed - 1] if needed >= 1 and rtts else 0.0

    def score(candidate: Any, point: ChoicePoint, node: Optional[Any]) -> float:
        info = point.info
        if point.label == "batch-size":
            conflicts = float(info.get("conflicts", 0.0))
            queue = max(int(info.get("queue", 0)), 1)
            effective = queue / (1.0 + conflicts)
            # Largest batch the queue can fill wins; the epsilon
            # prefers the smallest sufficient candidate.
            return min(candidate, effective) - 1e-3 * candidate
        if point.label == "proposer":
            origin = node.node_id if node is not None else int(info.get("origin", 0))
            forward = rtt(origin, candidate)
            return -(forward
                     + config.processing_delay(candidate) * depth
                     + majority_rtt[candidate] / depth)
        if point.label == "retry-pacing":
            conflicts = min(float(info.get("conflicts", 0.0)), 3.0)
            return -abs(candidate - (1.0 + conflicts))
        return 0.0

    return GreedyResolver(score)


__all__ = [
    "ThroughputObjective",
    "predicted_commit_latency",
    "proposer_score",
    "make_proposer_resolver",
    "leader_resolver",
    "make_throughput_resolver",
]
