"""Steered fuzzing survives a failing predictor.

With ``probes=False`` only the CrystalBall runtimes predict, once per
simulated second on every node.  A predictor that raises skips that
round (``runtime.degraded.round_skipped``) instead of aborting the
execution, so the campaign still runs every execution.
"""

import random

from repro.fuzz import FuzzCampaign, make_target
from repro.mc import ConsequencePredictor

# The campaign's summary with no wrapper installed.
UNWRAPPED_SUMMARY = {
    "target": "randtree", "seed": 1, "mode": "guided", "executions": 20,
    "violations": 0, "first_violation_execution": None, "corpus_size": 15,
    "coverage": {"features": 49, "unique_traces": 20, "unique_plans": 20},
    "duplicate_plans_skipped": 1,
}


def steered_campaign():
    campaign = FuzzCampaign(
        make_target("randtree"), seed=1, budget=20, steering=True, probes=False,
    )
    return campaign.run().summary()


def flaky_predict(monkeypatch, failure_rate):
    """Make a seeded share of predict calls raise; returns the fire count."""
    predict = ConsequencePredictor.predict
    rng = random.Random(1)
    fired = []

    def flaky(self, world):
        if rng.random() < failure_rate:
            fired.append(1)
            raise RuntimeError("injected predictor failure")
        return predict(self, world)

    monkeypatch.setattr(ConsequencePredictor, "predict", flaky)
    return fired


def test_wrapper_that_never_raises_changes_nothing(monkeypatch):
    fired = flaky_predict(monkeypatch, failure_rate=0.0)
    assert steered_campaign() == UNWRAPPED_SUMMARY
    assert fired == []


def test_every_execution_finishes_with_a_failing_predictor(monkeypatch):
    fired = flaky_predict(monkeypatch, failure_rate=0.2)
    summary = steered_campaign()
    assert summary["executions"] == 20
    assert fired
