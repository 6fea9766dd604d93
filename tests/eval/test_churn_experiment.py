"""Continuous-churn scenario harness (small/short for speed)."""

import pytest

from repro.eval import run_churn_experiment, tree_experiment
from repro.sim.trace import trace_digest


def run_small(variant, seed=1):
    return run_churn_experiment(
        variant, n=11, seed=seed, warmup=8.0, duration=15.0,
        churn_period=3.0, downtime=3.0,
    )


# (mean depth, max depth, mean attached fraction, churn events) of run_small.
PINNED = {
    "baseline": (4.933333333333334, 5, 0.9539393939393939, 4),
    "choice-random": (4.0, 4, 0.9406060606060606, 4),
}


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_churn_scenario_runs(variant):
    result = run_small(variant)
    assert result.samples == 15
    assert (result.mean_depth, result.max_depth, result.mean_attached_fraction,
            result.churn_events) == PINNED[variant]


def test_churn_deterministic():
    a = run_small("baseline", seed=4)
    b = run_small("baseline", seed=4)
    assert a.mean_depth == b.mean_depth
    assert a.max_depth == b.max_depth
    assert a.mean_attached_fraction == b.mean_attached_fraction


def test_churn_crystalball_variant_runs(monkeypatch):
    # The experiment returns a summary, not its world: keep the cluster
    # it builds to pin the full trace digest of the run as well.
    built = []
    real = tree_experiment.Cluster
    monkeypatch.setattr(tree_experiment, "Cluster",
                        lambda *args, **kwargs: built.append(real(*args, **kwargs)) or built[-1])
    result = run_churn_experiment(
        "choice-crystalball", n=9, seed=1, warmup=6.0, duration=10.0,
        churn_period=3.0, downtime=3.0, chain_depth=4, budget=100,
    )
    assert result.samples == 10
    assert (result.mean_depth, result.max_depth, result.mean_attached_fraction,
            result.churn_events) == (4.0, 4, 0.9263888888888889, 3)
    assert (len(built[0].sim.trace), trace_digest(built[0].sim.trace)) == (
        7486, "768c86c464294873e7e5131e5631ef380694f001ecef0c5931635ccfdfbf1beb")
