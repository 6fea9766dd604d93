"""Exposed choices (Figure 1): the runtime reads ``steering_policy``
once and builds one of two resolvers, each answering
``resolve(point, node)`` and ``invalidate(reason)``.

:class:`PerChoiceResolver` scores every candidate of every choice by
sandbox replay; :class:`AmortizedResolver` answers from the tables of
:class:`~repro.runtime.policy.AmortizedSteering` and scores a round only
for budgeted misses.  A choice neither can predict leaves through one
exit, :meth:`_Resolver.degrade`.  The only runtime method a resolver
calls is ``_score_candidate``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..choice.choicepoint import ChoicePoint, ConfigurationError
from ..statemachine import ChoiceRequested
from .policy import AmortizedSteering

# Per-candidate state budget of one amortized scored round: the value
# BENCH_T2.json's numbers were recorded with.
_POLICY_BUDGET = 240
# Why a choice was answered by the fallback instead of a prediction, one
# counter each (``runtime.degraded.<reason>``): the per-choice reasons,
# the amortized scheduler's (see AmortizedSteering), and a periodic
# prediction round that raised, which is skipped rather than answered.
DEGRADE_REASONS = (
    "no_dispatch", "replay_exhausted", "prediction_error",
    "denied", "deferred", "budget", "unranked", "round_skipped",
)


def _state_weight(values: Iterable[Any]) -> int:
    """Size proxy for a state: top-level container lengths summed."""
    return sum(
        len(value) if isinstance(value, (dict, list, tuple, set, frozenset))
        else 1
        for value in values
    )


class _Resolver:
    """The fallback and the one exit to it; ``runtime`` supplies the
    node, the ``metrics`` to record into and ``_score_candidate``."""

    def __init__(self, runtime: Any, fallback: Any) -> None:
        # Checked when the runtime is built, not at the first miss.
        if not callable(getattr(fallback, "resolve", None)):
            raise ConfigurationError(
                "CrystalBallRuntime requires a fallback resolver with a "
                f".resolve(point, node) method, got {fallback!r}; omit the "
                "argument to use FirstResolver"
            )
        self.runtime = runtime
        self.fallback = fallback
        self._degraded = {
            reason: runtime.metrics.counter(
                f"runtime.degraded.{reason}", node=runtime.node.node_id)
            for reason in DEGRADE_REASONS
        }

    def degrade(self, reason: str, point: ChoicePoint, node: Optional[Any]) -> Any:
        """The one exit for a choice prediction cannot answer: count it
        as ``degraded.<reason>`` and let the fallback resolve it."""
        self._degraded[reason].inc()
        return self.fallback.resolve(point, node)

    def skip_round(self) -> None:
        """Count a periodic prediction round that raised (not answered)."""
        self._degraded["round_skipped"].inc()


class PerChoiceResolver(_Resolver):
    """Score every candidate of every choice by sandbox replay."""

    #: Every choice replays the dispatch that made it, so the node
    #: captures every dispatch, and a choice made outside one degrades
    #: as ``no_dispatch`` before any prediction starts.
    needs_dispatch = True
    #: The amortized scheduler's tables; a per-choice resolver has none.
    amortized: Optional[AmortizedSteering] = None

    def invalidate(self, reason: str) -> None:
        """Nothing to flush: every choice is scored afresh."""

    def resolve(self, point: ChoicePoint, node: Any) -> Any:
        """Pick the candidate whose predicted future scores best (the
        first of equally scored ones): each is replayed in the captured
        dispatch and its resulting world predicted and scored."""
        runtime = self.runtime
        dispatch = node.current_dispatch
        best, best_score = None, float("-inf")
        with runtime.metrics.span("runtime.choice", node=runtime.node.node_id):
            try:
                for candidate in point.candidates:
                    score = runtime._score_candidate(dispatch, candidate)
                    node.sim.trace.record(
                        node.sim.now, "runtime.choice_score", node=node.node_id,
                        label=point.label, score=round(score, 6),
                    )
                    if score > best_score:
                        best, best_score = candidate, score
            except ChoiceRequested:
                raise
            except Exception:
                return self.degrade("prediction_error", point, node)
        if best_score == float("-inf"):
            return self.degrade("replay_exhausted", point, node)
        return best


class AmortizedResolver(_Resolver):
    """Answer from :class:`AmortizedSteering`'s tables, scoring a whole
    scenario in one round when they miss and the budget allows."""

    # Per-dispatch checkpointing is the dominant cost at high event
    # rates, so capture starts disarmed and the scheduler arms it only
    # while it is hungry for a scoring round.
    needs_dispatch = False

    def __init__(self, runtime: Any, fallback: Any) -> None:
        super().__init__(runtime, fallback)
        amortized = self.amortized = AmortizedSteering(
            degrade=self.degrade,
            metrics=runtime.metrics,
            node=runtime.node.node_id,
            score_fn=self._policy_score,
            cost_fn=self._policy_cost,
        )
        # Rankings and coalesced answers implicitly read connectivity
        # and liveness (which destinations are reachable/up); neither is
        # part of the scenario signature's bucketed hints, so changes
        # flush both.
        network = runtime.node.network
        network.topology_listeners.append(
            lambda kind: amortized.invalidate(f"topology:{kind}"))
        network.liveness.subscribe(
            lambda node_id, is_up: amortized.invalidate("liveness"))

    def invalidate(self, reason: str) -> None:
        """The world changed: drop every ranking and coalesced answer."""
        self.amortized.invalidate(reason)

    def resolve(self, point: ChoicePoint, node: Any) -> Any:
        """Coalesced answer, else a ranking, else a budgeted scored round
        (see :class:`AmortizedSteering`)."""
        runtime = self.runtime
        with runtime.metrics.span("runtime.choice", node=runtime.node.node_id):
            return self.amortized.resolve(point, node)

    def _policy_score(self, point: ChoicePoint, node: Any):
        """One scored prediction round: every candidate scored under the
        smaller ``_POLICY_BUDGET``, as ``(ranking, cost)`` — or None when
        the current dispatch was not captured (the scheduler then arms
        capture and falls back for now)."""
        dispatch = node.current_dispatch
        if dispatch is None:
            return None
        runtime = self.runtime
        before = runtime.states_explored.value
        scored = []
        with runtime.metrics.span("runtime.policy_score", node=runtime.node.node_id):
            for candidate in point.candidates:
                score = runtime._score_candidate(dispatch, candidate, budget=_POLICY_BUDGET)
                scored.append((candidate, score))
        # Stable sort: candidates tied on score keep application order,
        # matching the per-choice path's strict-improvement rule.
        scored.sort(key=lambda pair: pair[1], reverse=True)
        # Charge a round its predicted states PLUS the checkpoint
        # weight per replayed candidate.  The weight is the term that
        # tracks what a round costs: replay and scoring grow with the
        # state, not with the states explored.  Charged explored states
        # alone (measured on a 2-core host, ROADMAP item 18), the Paxos
        # amortized workload ran past 600 s against 7.7 s, and a scored
        # round went from ~5 to ~15 ms.  The weight makes the rate
        # budget concentrate scoring early, when state is small, and
        # throttle it as a decided log grows.
        cost = runtime.states_explored.value - before + self._policy_cost(point, node)
        node.sim.trace.record(
            node.sim.now, "runtime.policy_distilled", node=node.node_id,
            label=point.label, states=cost,
        )
        return tuple(scored), cost

    def _policy_cost(self, point: ChoicePoint, node: Any) -> Optional[int]:
        """Projected cost of scoring ``point`` now, for budget admission.

        The weight term (``_state_weight``, the size proxy: see
        ``_policy_score``) dominates a round's bill once the service's
        state has grown, and it is knowable *before* capturing or
        replaying anything: with no dispatch captured yet, the service's
        ``live_state()`` gives the same proxy without a copy.  Denying
        up front matters twice over — an unaffordable round is never
        replayed, and (because denial precedes the defer-and-arm path)
        capture is never armed for it, so the node does not pay the
        O(state) pre-dispatch snapshot either.
        """
        dispatch = node.current_dispatch
        if dispatch is not None:
            weight = _state_weight(dispatch.checkpoint.values())
        else:
            service = getattr(node, "service", None)
            if not getattr(service, "state_fields", None):
                return None
            weight = _state_weight(service.live_state().values())
        return weight * len(point.candidates)


__all__ = ["AmortizedResolver", "DEGRADE_REASONS", "PerChoiceResolver"]
