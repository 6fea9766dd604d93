"""T2 — amortized prediction-driven steering at T1 scale.

Not a paper figure: the ROADMAP item-2 follow-through.  T1 showed that
running full consequence prediction per exposed choice is hopeless at
10^5 offered requests and fell back to a *static* deployment-model
resolver.  T2 measures the amortized middle road: scored prediction
rounds distill candidate rankings that are reused across every choice
sharing a coarse scenario signature, with coalescing and a
deterministic states-rate budget keeping prediction off the hot path.
Three modes over the same chaos plans:

* ``off`` — first candidate everywhere (the legacy unbatched replica);
* ``static`` — the T1 deployment-model resolver;
* ``amortized`` — prediction-driven steering through
  :class:`~repro.runtime.AmortizedSteering`.

The bar: amortized throughput must land within 2x of the static
resolver (it pays for real prediction rounds) while beating steering-
off by an order of magnitude in the full run — prediction-quality
steering at static-resolver cost.  Same-seed amortized runs must be
digest-identical (the budget is sim-state-driven, never wall-clock),
and the static mode must still reproduce the recorded T1 digest
byte-for-byte (amortized machinery off changes nothing).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.eval import run_throughput_experiment, standard_plans

from conftest import print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SEED = 1
N = 5
TOTAL = 4_000 if QUICK else 100_000
HORIZON = 15.0 if QUICK else 60.0
PLANS = {p.name: p for p in standard_plans(N, HORIZON, amnesia=False)}
MODES = ("off", "static", "amortized")

# Thresholds: quick runs give the policy little time to learn, so the
# floors are looser there; the full run enforces the headline claim.
MIN_VS_STATIC = 0.5
MIN_VS_OFF = 3.0 if QUICK else 10.0

_RESULTS = {}
_WALL = {}


def _run(mode: str, plan_name: str, total=TOTAL, horizon=HORIZON, seed=SEED):
    key = (mode, plan_name, total, horizon, seed)
    if key not in _RESULTS:
        start = time.perf_counter()
        _RESULTS[key] = run_throughput_experiment(
            mode, seed=seed, total_requests=total, horizon=horizon,
            plan=PLANS[plan_name],
        )
        _WALL[key] = time.perf_counter() - start
    return _RESULTS[key]


def _score_wall(result) -> float:
    """Total wall seconds spent inside scored prediction rounds."""
    total = 0.0
    for section in result.metrics.get("nodes", {}).values():
        for name, span in (section.get("spans") or {}).items():
            if "runtime.policy_score" in name:
                total += span.get("total_s", 0.0)
    return total


@pytest.mark.parametrize("plan_name", ("message-chaos", "crash-recovery"))
def test_t2_amortized_beats_off_and_holds_static(benchmark, plan_name):
    """Amortized steering lands near static throughput and an order of
    magnitude over steering-off, with safety held throughout."""

    def sweep():
        return [_run(mode, plan_name) for mode in MODES]

    off, static, amortized = benchmark.pedantic(sweep, rounds=1, iterations=1)
    steering = amortized.metrics["steering"]
    counters = steering["counters"]
    resolutions = steering["resolutions"]
    wall = _WALL[("amortized", plan_name, TOTAL, HORIZON, SEED)]
    score_wall = _score_wall(amortized)
    duty_cycle = score_wall / wall if wall else 0.0
    print_table(
        f"T2: steering modes under {plan_name} "
        f"({TOTAL:,} offered, {HORIZON:g}s horizon)",
        ("mode", "offered", "committed", "ops/s", "mean batch", "safe"),
        [
            (r.mode, f"{r.offered:,}", f"{r.committed:,}",
             f"{r.ops_per_sec:,.0f}", f"{r.mean_batch:.1f}", r.safe)
            for r in (off, static, amortized)
        ],
    )
    print_table(
        f"T2: amortization under {plan_name}",
        ("resolutions", "scored rounds", "policy hits", "coalesced",
         "fallbacks", "hit rate", "score wall", "duty cycle"),
        [(
            resolutions, counters["scored_rounds"], counters["policy_hits"],
            counters["coalesced"], counters["fallbacks"],
            f"{steering['policy']['hit_rate']:.0%}",
            f"{score_wall:.2f}s", f"{duty_cycle:.1%}",
        )],
    )
    for r in (off, static, amortized):
        assert r.safe, f"safety violated under {r.mode}"
        assert r.committed > 0
    # One prediction round, thousands of choices: scoring must be the
    # rare path, and the sum of answers must come from somewhere else.
    assert counters["scored_rounds"] >= 1, "no prediction round ever ran"
    assert counters["scored_rounds"] < resolutions / 2, (
        "scoring dominated: amortization is not amortizing"
    )
    assert steering["policy"]["installs"] >= 1
    assert amortized.ops_per_sec >= MIN_VS_STATIC * static.ops_per_sec, (
        f"amortized {amortized.ops_per_sec:.0f} ops/s fell below "
        f"{MIN_VS_STATIC}x static ({static.ops_per_sec:.0f})"
    )
    assert amortized.ops_per_sec >= MIN_VS_OFF * off.ops_per_sec, (
        f"amortized {amortized.ops_per_sec:.0f} ops/s is not "
        f"{MIN_VS_OFF}x steering-off ({off.ops_per_sec:.0f})"
    )
    record_metrics(
        "T2",
        **{
            f"{plan_name}.ops_per_sec_amortized": round(amortized.ops_per_sec, 1),
            f"{plan_name}.ops_per_sec_static": round(static.ops_per_sec, 1),
            f"{plan_name}.ops_per_sec_off": round(off.ops_per_sec, 1),
            f"{plan_name}.amortized_vs_off_speedup": round(
                amortized.ops_per_sec / max(off.ops_per_sec, 1e-9), 2),
            f"{plan_name}.amortized_vs_static": round(
                amortized.ops_per_sec / max(static.ops_per_sec, 1e-9), 3),
            f"{plan_name}.scored_rounds": counters["scored_rounds"],
            f"{plan_name}.resolutions": resolutions,
            f"{plan_name}.policy_hit_rate": round(
                steering["policy"]["hit_rate"], 3),
            f"{plan_name}.spent_states": steering["spent_states"],
            f"{plan_name}.score_wall_s": round(score_wall, 3),
        },
    )


def test_t2_campaign_config(benchmark):
    def materialize():
        for plan_name in ("message-chaos", "crash-recovery"):
            for mode in MODES:
                _run(mode, plan_name)
        return list(_RESULTS.values())

    results = benchmark.pedantic(materialize, rounds=1, iterations=1)
    assert all(r.safe for r in results)
    record_metrics(
        "T2",
        quick=QUICK,
        seed=SEED,
        horizon_s=HORIZON,
        total_requests_per_run=TOTAL,
        campaign_offered=sum(r.offered for r in results),
        campaign_committed=sum(r.committed for r in results),
    )


def test_t2_amortized_seed_reproducibility(benchmark):
    """Same (seed, configuration) → identical digests in amortized mode.

    This is the determinism claim doing real work: the scheduler's
    budget is predicted-states-per-sim-second, so whether a choice was
    scored, answered from policy, or fell back is a pure function of
    simulation state — never of host speed."""
    total, horizon = 1_500, 10.0

    def run_twice():
        runs = []
        for _ in range(2):
            runs.append(run_throughput_experiment(
                "amortized", seed=7, total_requests=total, horizon=horizon,
                plan=standard_plans(N, horizon, amnesia=False)[0],
            ))
        return runs

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    print_table(
        "T2: amortized replay determinism",
        ("run", "state digest", "committed", "scored rounds"),
        [(name, r.state_digest, r.committed,
          r.metrics["steering"]["counters"]["scored_rounds"])
         for name, r in (("first", first), ("second", second))],
    )
    assert first.state_digest == second.state_digest
    assert first.committed == second.committed
    assert (first.metrics["steering"]["counters"]
            == second.metrics["steering"]["counters"])
    record_metrics("T2", repro_digest=first.state_digest)


def test_t2_static_mode_reproduces_t1_digest(benchmark):
    """Amortized-off is a no-op: the static mode still produces the T1
    digest recorded in BENCH_T1.json, byte for byte."""
    baseline_path = Path(__file__).resolve().parents[1] / "BENCH_T1.json"
    if not baseline_path.exists():
        pytest.skip("no BENCH_T1.json baseline recorded")
    baseline = json.loads(baseline_path.read_text())
    expected = baseline.get("metrics", {}).get("repro_digest")
    if not expected:
        pytest.skip("BENCH_T1.json has no repro_digest")
    total, horizon = 1_500, 10.0

    def run_static():
        return run_throughput_experiment(
            "static", seed=7, total_requests=total, horizon=horizon,
            plan=standard_plans(N, horizon, amnesia=False)[0],
        )

    result = benchmark.pedantic(run_static, rounds=1, iterations=1)
    print_table(
        "T2: static mode vs recorded T1 digest",
        ("source", "digest"),
        [("BENCH_T1.json", expected), ("static run", result.state_digest)],
    )
    assert result.state_digest == expected, (
        "static mode no longer reproduces the recorded T1 digest — the "
        "amortized machinery is not digest-neutral when off"
    )
    record_metrics("T2", t1_digest_match=True)
