"""R1 — adversarial scenario search effectiveness.

Not a paper figure: the fuzzer hunts safety violations the chaos
sweeps (A7) only ever *assert the absence of*.  The claim under test
is that coverage-guided search — trace-novelty plus near-violation
scores mined from consequence prediction — finds violations faster
than drawing plans at random from the same surface:

* **violations per 1k executions**, guided vs random, same budget and
  campaign seed, on both targets;
* **first-violation execution index** (how much budget until the
  first counterexample);
* **shrink ratio**: events kept after delta-debugging the first
  counterexample to local minimality, with the shrunk plan confirmed
  to still violate under the same seed.

Campaigns are pure functions of their seed, so the numbers here are
exactly reproducible.
"""

import os

import pytest

from repro.fuzz import FuzzCampaign, make_target, shrink_counterexample

from conftest import print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# Guided reaches its first violation at execution 140 on randtree and
# 440 on paxos (seed 1); the quick budget must cover both, or the shrink
# check has no counterexample.  The full budget gives random a fair
# chance to catch up.
BUDGET = 500 if QUICK else 2000
SEED = 1
TARGETS = ("randtree", "paxos")

_campaigns = {}


def _run(target_name: str, mode: str):
    key = (target_name, mode)
    if key not in _campaigns:
        campaign = FuzzCampaign(
            make_target(target_name), seed=SEED, budget=BUDGET, mode=mode,
        )
        _campaigns[key] = campaign.run()
    return _campaigns[key]


def _per_1k(count: int, executions: int) -> float:
    return 1000.0 * count / executions if executions else 0.0


@pytest.mark.parametrize("target_name", TARGETS)
def test_r1_guided_vs_random(benchmark, target_name):
    """Guided search finds at least as many violations as random."""
    guided = benchmark.pedantic(
        lambda: _run(target_name, "guided"), rounds=1, iterations=1,
    )
    random_result = _run(target_name, "random")
    rows = []
    for label, result in (("guided", guided), ("random", random_result)):
        first = result.first_violation_execution
        rows.append((
            label, result.executions, len(result.counterexamples),
            f"{_per_1k(len(result.counterexamples), result.executions):.1f}",
            first if first is not None else "-",
            result.coverage.get("features", 0),
        ))
    print_table(
        f"R1: fuzz vs random ({target_name}, seed={SEED}, budget={BUDGET})",
        ("mode", "executions", "violations", "per-1k", "first-at", "features"),
        rows,
    )
    record_metrics(
        "R1",
        **{
            f"{target_name}_guided_violations_per_1k":
                round(_per_1k(len(guided.counterexamples), guided.executions), 2),
            f"{target_name}_random_violations_per_1k":
                round(_per_1k(len(random_result.counterexamples),
                              random_result.executions), 2),
            f"{target_name}_guided_first_violation":
                guided.first_violation_execution,
            f"{target_name}_random_first_violation":
                random_result.first_violation_execution,
        },
    )
    assert guided.found_violation, "guided search found no violation in budget"
    # The effectiveness claim: guided at least matches random on this
    # fixed seed.  Violation counts are too noisy to compare at the
    # quick budget, so the dominance check runs at full budget only.
    if not QUICK:
        assert len(guided.counterexamples) >= len(random_result.counterexamples)


@pytest.mark.parametrize("target_name", TARGETS)
def test_r1_shrink_ratio(benchmark, target_name):
    """The first counterexample shrinks and still violates."""
    result = _run(target_name, "guided")
    if not result.counterexamples:
        pytest.skip("no counterexample at this budget")
    ce = result.counterexamples[0]
    target = make_target(target_name)
    shrink = benchmark.pedantic(
        lambda: shrink_counterexample(target, ce.plan, ce.seed),
        rounds=1, iterations=1,
    )
    print_table(
        f"R1: shrink ({target_name})",
        ("events-in", "events-out", "ratio", "horizon", "oracle-runs",
         "confirmed"),
        [(
            len(shrink.original), len(shrink.shrunk), f"{shrink.ratio:.2f}",
            f"{shrink.horizon:g}" if shrink.horizon is not None else "-",
            shrink.executions_used, shrink.confirmed,
        )],
    )
    record_metrics(
        "R1",
        **{
            f"{target_name}_shrink_ratio": round(shrink.ratio, 3),
            f"{target_name}_shrink_events": len(shrink.shrunk),
        },
    )
    assert shrink.confirmed, "shrunk plan no longer violates"
    assert len(shrink.shrunk) <= len(shrink.original)


def test_r1_campaign_determinism(benchmark):
    """Same (target, seed, budget) -> byte-identical campaign record."""

    def twice():
        a = FuzzCampaign(make_target("randtree"), seed=3, budget=60).run()
        b = FuzzCampaign(make_target("randtree"), seed=3, budget=60).run()
        return a, b

    a, b = benchmark.pedantic(twice, rounds=1, iterations=1)
    assert a.corpus_digests() == b.corpus_digests()
    assert a.coverage == b.coverage
    assert [(ce.plan.digest(), ce.seed, ce.trace_digest)
            for ce in a.counterexamples] == \
           [(ce.plan.digest(), ce.seed, ce.trace_digest)
            for ce in b.counterexamples]
    record_metrics("R1", determinism_corpus_size=len(a.corpus))
