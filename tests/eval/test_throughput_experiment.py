"""T1/T2 throughput experiment: steering modes and digest discipline."""

import json
from pathlib import Path

import pytest

from repro.eval import run_throughput_experiment, steering_mode

SMALL = dict(seed=3, total_requests=300, horizon=6.0)


def test_steering_mode_normalization():
    assert steering_mode(False) == "off"
    assert steering_mode(True) == "static"
    assert steering_mode("amortized") == "amortized"
    with pytest.raises(ValueError):
        steering_mode("turbo")


def test_bool_steering_keeps_legacy_behaviour():
    r = run_throughput_experiment(True, **SMALL)
    assert r.mode == "static"
    assert r.steering is True
    r = run_throughput_experiment(False, **SMALL)
    assert r.mode == "off"
    assert r.steering is False


def test_amortized_mode_runs_safely_and_reports_steering_metrics():
    r = run_throughput_experiment("amortized", **SMALL)
    assert r.mode == "amortized"
    assert r.steering is True
    assert r.safe
    assert r.committed > 0
    steering = r.metrics["steering"]
    # The whole point: far fewer scored rounds than resolved choices.
    resolved = steering["resolutions"]
    assert steering["counters"]["scored_rounds"] >= 1
    assert steering["counters"]["scored_rounds"] < resolved
    assert steering["policy"]["installs"] >= 1
    assert "hit_rate" in steering["policy"]


def test_amortized_mode_is_seed_deterministic():
    a = run_throughput_experiment("amortized", **SMALL)
    b = run_throughput_experiment("amortized", **SMALL)
    assert a.state_digest == b.state_digest
    assert a.committed == b.committed


def test_modes_off_and_static_unaffected_by_amortized_machinery():
    """Amortized-off must reproduce the pre-amortization digests: the
    static and off paths install no runtime, capture no dispatches, and
    resolve exactly as before this feature existed."""
    off = run_throughput_experiment("off", **SMALL)
    static = run_throughput_experiment("static", **SMALL)
    assert "steering" not in off.metrics
    assert "steering" not in static.metrics
    # Static steering dominates off (it batches); both digests are
    # reproducible run-over-run.
    assert static.committed > off.committed
    assert run_throughput_experiment("off", **SMALL).state_digest == off.state_digest
    assert (
        run_throughput_experiment("static", **SMALL).state_digest
        == static.state_digest
    )


def test_t1_replay_gives_one_digest_and_it_is_the_recorded_one():
    """The decided logs here are long int runs, digested as hashed
    leaves: same seed, same digest — the one BENCH_T1.json records and
    ``benchmarks/bench_t2_amortized.py`` compares the static mode to."""
    replay = dict(seed=7, total_requests=1_500, horizon=10.0)
    first = run_throughput_experiment("static", **replay)
    second = run_throughput_experiment("static", **replay)
    assert first.committed == second.committed == 1_500
    assert first.state_digest == second.state_digest
    recorded = json.loads((Path(__file__).resolve().parents[2] / "BENCH_T1.json").read_text())
    assert first.state_digest == recorded["metrics"]["repro_digest"]


def test_probe_flags_a_conflicting_decision_at_the_last_replica(monkeypatch):
    """The live probe reads every replica: a value only the last one
    decided breaks agreement, and nothing else."""
    from repro.eval import paxos_experiment

    real = paxos_experiment.Cluster

    def sabotaged(*args, **kwargs):
        cluster = real(*args, **kwargs)
        last = cluster.service(len(cluster.nodes) - 1)
        cluster.sim.schedule_at(2.0, lambda: last.chosen.update({0: (99, 99)}),
                                tag="test:sabotage")
        return cluster

    monkeypatch.setattr(paxos_experiment, "Cluster", sabotaged)
    r = run_throughput_experiment("static", **SMALL)
    assert (r.agreement, r.at_most_once, r.safe) == (False, True, False)


def test_static_mode_under_message_chaos_opens_no_span(monkeypatch):
    """With no CrystalBall runtime installed nothing in the run times
    itself: the chaos interposer consults every send without a span."""
    from repro.obs.spans import Span

    entered = []
    original = Span.__enter__

    def counted(span):
        entered.append(span)
        return original(span)

    monkeypatch.setattr(Span, "__enter__", counted)
    result = run_throughput_experiment("static", **SMALL)
    assert result.committed > 0
    assert entered == []
