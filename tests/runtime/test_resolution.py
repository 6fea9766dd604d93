"""Per-choice resolution on its own: a stub node, a captured dispatch and
a scripted scorer stand in for the runtime, so no ``Cluster`` runs."""

from types import SimpleNamespace

import pytest

from repro.choice import ChoicePoint
from repro.mc import TimerAction
from repro.obs import MetricsRegistry
from repro.runtime.resolution import DEGRADE_REASONS, PerChoiceResolver
from repro.sim import Simulator
from repro.statemachine import ChoiceRequested
from repro.statemachine.node import DispatchRecord

from ..choice.doubles import FixedResolver

INF = float("inf")


class ScriptedRuntime:
    """What a resolver reads from its runtime; ``_score_candidate``
    answers from ``scores`` (a value, or an exception to raise)."""

    def __init__(self, scores):
        self.node = SimpleNamespace(
            node_id=0, sim=Simulator(seed=1),
            current_dispatch=DispatchRecord(TimerAction(0, "give", None), {"wealth": 0}),
        )
        self.metrics = MetricsRegistry()
        self.scores = scores
        self.scored = []

    def _score_candidate(self, dispatch, candidate, budget=None):
        assert dispatch is self.node.current_dispatch
        self.scored.append(candidate)
        score = self.scores[candidate]
        if isinstance(score, BaseException):
            raise score
        return score


def resolve(scores, runtime=None):
    """Resolve one choice over ``scores``' candidates; the fallback
    answers with the last candidate."""
    runtime = runtime or ScriptedRuntime(scores)
    point = ChoicePoint("gift-target", list(scores), node_id=0)
    value = PerChoiceResolver(runtime, FixedResolver(len(scores))).resolve(point, runtime.node)
    recorded = [r.data["score"] for r in runtime.node.sim.trace.select("runtime.choice_score")]
    return value, runtime, recorded, degraded(runtime)


def degraded(runtime):
    """The non-zero ``runtime.degraded.<reason>`` counters, by reason."""
    counts = {reason: runtime.metrics.counter(f"runtime.degraded.{reason}", node=0).value
              for reason in DEGRADE_REASONS}
    return {reason: count for reason, count in counts.items() if count}


def test_tie_goes_to_the_first_best_candidate():
    value, runtime, recorded, degraded = resolve({1: 0.5, 2: 2.0, 3: 2.0})
    assert value == 2
    assert recorded == [0.5, 2.0, 2.0]
    assert degraded == {}
    assert runtime.metrics.span_stats("runtime.choice", node=0).count == 1


def test_every_score_minus_inf_degrades_replay_exhausted():
    value, _, recorded, degraded = resolve({1: -INF, 2: -INF, 3: -INF})
    assert value == 3  # the fallback's answer
    assert recorded == [-INF] * 3
    assert degraded == {"replay_exhausted": 1}


def test_raising_scorer_degrades_prediction_error_and_keeps_earlier_records():
    value, runtime, recorded, degraded = resolve(
        {1: 1.0, 2: RuntimeError("replay failed"), 3: 9.0})
    assert value == 3  # the fallback's answer, not the best score seen
    assert runtime.scored == [1, 2]  # nothing is scored after the raise
    assert recorded == [1.0]
    assert degraded == {"prediction_error": 1}


def test_choice_requested_propagates():
    request = ChoiceRequested(ChoicePoint("inner", [1], node_id=0), [], False)
    scores = {1: 1.0, 2: request}
    runtime = ScriptedRuntime(scores)
    with pytest.raises(ChoiceRequested):
        resolve(scores, runtime)
    assert not any(runtime.metrics.counters().values())
