"""One way to degrade: every choice prediction cannot answer goes to the
runtime's fallback and is counted once, as ``degraded.<reason>``.

Each reason is injected through a seam the per-layer tracer also wraps:
``ConsequencePredictor.predict``, ``CrystalBallRuntime._score_candidate``
or the amortized scheduler's ``score_fn``/``cost_fn``.
"""

from collections import Counter

import pytest

from repro.choice import PerformanceObjective
from repro.mc import ConsequencePredictor
from repro.runtime import DEGRADE_REASONS, CrystalBallRuntime, install_crystalball
from repro.statemachine import Cluster, timer_handler

from ..choice.doubles import FixedResolver
from .test_resolver import GiverService, factory, weighted_wealth

AMORTIZED_REASONS = ("denied", "deferred", "budget", "unranked", "prediction_error")


def giver(steering_policy=False, patch=None, until=3.5):
    """Node 0 gives once a second (t=1, 2, ...) to node 1 or 2.

    Prediction always picks node 2.  The fallback, FixedResolver(0),
    picks node 1, so node 1's wealth counts the fallback's answers.
    ``patch(runtime)`` runs before the first choice.
    """
    cluster = Cluster(3, factory, seed=1)
    runtimes = install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
        steering_policy=steering_policy, fallback=FixedResolver(0),
    )
    runtime = runtimes[0]
    if patch is not None:
        patch(runtime)
    cluster.start_all()
    cluster.run(until=until)
    return cluster, runtime


def degraded(runtime):
    """The non-zero reason counters of one runtime."""
    counts = {reason: runtime.stats[f"degraded.{reason}"] for reason in DEGRADE_REASONS}
    return {reason: count for reason, count in counts.items() if count}


def raising_predict(monkeypatch):
    def boom(self, world):
        raise RuntimeError("predictor failed")

    monkeypatch.setattr(ConsequencePredictor, "predict", boom)


# ----------------------------------------------------------------------
# Per-choice prediction
# ----------------------------------------------------------------------


class InitChooser(GiverService):
    """Also chooses in on_init, where no dispatch is captured."""

    state_fields = ("wealth", "first")

    def __init__(self, node_id, n=3):
        super().__init__(node_id, n)
        self.first = None

    def on_init(self):
        self.first = self.choose("first-target", [1, 2])
        super().on_init()


def test_choice_without_dispatch_degrades_no_dispatch():
    cluster = Cluster(3, InitChooser, seed=1)
    runtimes = install_crystalball(
        cluster, InitChooser, checkpoint_period=0.5, fallback=FixedResolver(1),
    )
    cluster.start_all()
    assert [service.first for service in cluster.services] == [2, 2, 2]
    assert [degraded(r) for r in runtimes] == [{"no_dispatch": 1}] * 3
    assert all(r.stats["choices_resolved"] == 1 for r in runtimes)


@pytest.mark.parametrize("steering_policy", [False, True])
def test_choices_resolved_counts_every_answered_choice(monkeypatch, steering_policy):
    """One identity in both modes: ``choices_resolved`` is the number of
    choices the runtime answered, degraded ones included."""
    calls = Counter()
    resolve = CrystalBallRuntime.resolve

    def counted(runtime, point, node):
        calls[node.node_id] += 1
        return resolve(runtime, point, node)

    monkeypatch.setattr(CrystalBallRuntime, "resolve", counted)
    cluster = Cluster(3, InitChooser, seed=1)
    runtimes = install_crystalball(
        cluster, InitChooser, checkpoint_period=0.5, fallback=FixedResolver(1),
        steering_policy=steering_policy,
    )
    cluster.start_all()
    cluster.run(until=3.5)
    assert [r.stats["choices_resolved"] for r in runtimes] == [calls[n] for n in range(3)]
    assert calls[0] == 4  # one choice in on_init, one per give at t=1, 2, 3
    for runtime in runtimes:
        assert sum(degraded(runtime).values()) <= runtime.stats["choices_resolved"]
    if not steering_policy:
        # The on_init choices had no dispatch to replay; every give scored.
        assert [degraded(r) for r in runtimes] == [{"no_dispatch": 1}] * 3


def test_exhausted_replays_degrade_replay_exhausted(monkeypatch):
    monkeypatch.setattr(
        CrystalBallRuntime, "_score_candidate",
        lambda self, dispatch, candidate, budget=None: float("-inf"))
    cluster, runtime = giver()
    assert degraded(runtime) == {"replay_exhausted": 3}
    assert cluster.service(1).wealth == 3
    # Every candidate's score is still traced.
    assert cluster.sim.trace.count("runtime.choice_score") == 6


def test_raising_predictor_degrades_prediction_error(monkeypatch):
    raising_predict(monkeypatch)
    cluster, runtime = giver()
    assert degraded(runtime) == {"prediction_error": 3}
    assert cluster.service(1).wealth == 3
    assert runtime.stats["states_explored"] == 0


class ExplodingGiver(GiverService):
    """Raises after choosing, live and in every sandbox replay alike."""

    @timer_handler("give")
    def on_give_then_fail(self, payload):
        self.on_give(payload)
        raise RuntimeError("handler bug")


def test_live_handler_exception_still_propagates():
    cluster = Cluster(3, ExplodingGiver, seed=1)
    runtimes = install_crystalball(cluster, ExplodingGiver, checkpoint_period=0.5)
    cluster.start_all()
    with pytest.raises(RuntimeError, match="handler bug"):
        cluster.run(until=1.5)
    # The replays raised too, so the choice degraded before the live
    # handler's own exception surfaced.
    assert degraded(runtimes[0]) == {"prediction_error": 1}


# ----------------------------------------------------------------------
# Amortized scheduler
# ----------------------------------------------------------------------


def amortized_giver(patch=None):
    """Six choices (t=1..6) under the amortized scheduler; the reasons
    always sum to the scheduler's own fallback count, and every answered
    choice took exactly one path."""
    cluster, runtime = giver(steering_policy=True, patch=patch, until=6.5)
    counters = runtime.amortized.snapshot()["counters"]
    assert sum(degraded(runtime).values()) == counters["fallbacks"]
    assert (counters["coalesced"] + counters["policy_hits"]
            + counters["scored_rounds"] + counters["fallbacks"]
            == runtime.stats["choices_resolved"])
    return cluster, runtime


def test_unaffordable_rounds_degrade_denied():
    def patch(runtime):
        runtime.amortized.cost_fn = lambda point, node: 10 ** 9

    cluster, runtime = amortized_giver(patch)
    assert degraded(runtime) == {"denied": 6}
    assert runtime.amortized.snapshot()["counters"]["denied"] == 6
    assert cluster.service(1).wealth == 6


def test_uncaptured_dispatch_degrades_deferred():
    def patch(runtime):
        runtime.amortized.score_fn = lambda point, node: None

    _, runtime = amortized_giver(patch)
    assert degraded(runtime) == {"deferred": 6}


def test_empty_ranking_degrades_unranked_then_budget():
    # The first round ranks nothing and costs the whole budget: that
    # choice is unranked, and every later one finds the budget spent.
    def patch(runtime):
        runtime.amortized.score_fn = lambda point, node: ((), 10 ** 9)

    _, runtime = amortized_giver(patch)
    assert degraded(runtime) == {"unranked": 1, "budget": 5}


def test_raising_predictor_degrades_amortized_prediction_error(monkeypatch):
    raising_predict(monkeypatch)
    cluster, runtime = amortized_giver()
    # t=1 defers and arms capture; every later round reaches the
    # predictor, which raises, and charges nothing.
    assert degraded(runtime) == {"deferred": 1, "prediction_error": 5}
    snap = runtime.amortized.snapshot()
    assert snap["counters"]["scored_rounds"] == 0
    assert snap["spent_states"] == 0
    assert cluster.service(1).wealth == 6


def test_amortized_accounting_on_a_quick_t1_run():
    """The ``cli t1 --quick --steering amortized`` run: every answer
    takes one path, and every fallback has one reason."""
    from repro.eval import run_throughput_experiment

    result = run_throughput_experiment(
        "amortized", seed=1, total_requests=4_000, horizon=15.0)
    nodes = result.metrics["nodes"].values()
    counters = result.metrics["steering"]["counters"]
    reasons = {
        reason: sum(node["runtime"][f"degraded.{reason}"] for node in nodes)
        for reason in DEGRADE_REASONS
    }
    resolved = sum(node["runtime"]["choices_resolved"] for node in nodes)
    assert sum(reasons[r] for r in AMORTIZED_REASONS) == counters["fallbacks"] > 0
    assert sum(reasons.values()) == counters["fallbacks"]
    assert (reasons["denied"], reasons["deferred"]) == (counters["denied"], counters["deferred"])
    assert (counters["coalesced"] + counters["policy_hits"]
            + counters["scored_rounds"] + counters["fallbacks"]) == resolved
