"""O1 — observability overhead on the prediction hot path.

The metrics registry is only worth having if it is effectively free:
counters and gauges are plain attribute increments, and every timed
instrument (histograms, spans) sits behind ``registry.enabled``.  This
bench runs the P1 workload — depth-4 consequence prediction over a
16-node RandTree snapshot with a burst of concurrent joins in flight —
through the same optimized pipeline in three modes:

* ``metrics=None`` — the uninstrumented baseline (what the predictor
  does when nobody asked for metrics);
* an **enabled** registry — counters + histograms + states/sec gauges;
* a **disabled** registry — counters only, every timed path gated off.

Asserts all three modes produce byte-identical prediction reports
(instrumentation must never perturb exploration), that the enabled
registry costs < 5% wall time, and that the disabled registry is
indistinguishable from the baseline.  Results land in ``BENCH_O1.json``.
"""

import os

from repro.mc import ConsequencePredictor, Explorer
from repro.obs import MetricsRegistry

from bench_p1_hotpath import (
    CHAIN_DEPTH,
    N_NODES,
    _leaf_digests,
    _timed,
    _violation_signature,
    build_snapshot,
)
from conftest import print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

BUDGET = 50_000
# Single runs are ~tens of ms, so generous repeats keep the best-of-N
# overhead comparison well inside timer noise.
REPEATS = 10 if QUICK else 30
# Noise headroom: quick mode runs on loaded CI workers.
MAX_ENABLED_OVERHEAD = 0.10 if QUICK else 0.05
MAX_DISABLED_OVERHEAD = 0.05 if QUICK else 0.03


def test_o1_metrics_overhead_on_hot_path():
    from repro.apps.randtree import randtree_properties

    factory, world, config = build_snapshot()
    properties = randtree_properties(config)

    def pipeline(metrics):
        explorer = Explorer(factory, properties=properties)
        predictor = ConsequencePredictor(
            explorer, chain_depth=CHAIN_DEPTH, budget=BUDGET, metrics=metrics,
        )
        world.digest()  # warm the root's per-node digest cache
        return predictor.predict(world)

    enabled_registry = MetricsRegistry()
    disabled_registry = MetricsRegistry(enabled=False)

    # The arms alternate inside each repeat (best-of-N per arm over the
    # same rounds): timed as three consecutive blocks, a slow phase of
    # the host lands on one arm and reads as that arm's overhead.
    arms = (None, enabled_registry, disabled_registry)
    times = [float("inf")] * len(arms)
    reports = [None] * len(arms)
    for _ in range(REPEATS):
        for arm, metrics in enumerate(arms):
            elapsed, reports[arm] = _timed(lambda: pipeline(metrics), repeats=1)
            times[arm] = min(times[arm], elapsed)
    base_time, enabled_time, disabled_time = times
    base_report, enabled_report, disabled_report = reports

    # Instrumentation must never change what prediction explores.
    for report in (enabled_report, disabled_report):
        assert report.total_states == base_report.total_states
        assert _violation_signature(report) == _violation_signature(base_report)
        assert _leaf_digests(report) == _leaf_digests(base_report)

    # The enabled registry actually measured the runs.
    assert enabled_registry.counter("mc.predictions").value == REPEATS
    assert enabled_registry.histogram("mc.predict.states").total == \
        REPEATS * base_report.total_states
    assert enabled_registry.histogram("mc.predict.seconds").count == REPEATS
    assert enabled_registry.gauge("mc.states_per_sec").value > 0
    # The disabled one kept its cheap counters but never touched a clock.
    assert disabled_registry.counter("mc.predictions").value == REPEATS
    assert disabled_registry.histogram("mc.predict.seconds").count == 0

    enabled_overhead = enabled_time / base_time - 1.0
    disabled_overhead = disabled_time / base_time - 1.0
    print_table(
        f"O1: depth-{CHAIN_DEPTH} prediction over {N_NODES} nodes "
        f"({base_report.total_states} states), best of {REPEATS}",
        ("mode", "seconds", "overhead"),
        [
            ("metrics=None (baseline)", f"{base_time:.3f}", "—"),
            ("registry enabled", f"{enabled_time:.3f}",
             f"{enabled_overhead:+.1%}"),
            ("registry disabled", f"{disabled_time:.3f}",
             f"{disabled_overhead:+.1%}"),
        ],
    )
    record_metrics(
        "O1",
        nodes=N_NODES,
        chain_depth=CHAIN_DEPTH,
        states=base_report.total_states,
        baseline_seconds=round(base_time, 4),
        enabled_seconds=round(enabled_time, 4),
        disabled_seconds=round(disabled_time, 4),
        enabled_overhead=round(enabled_overhead, 4),
        disabled_overhead=round(disabled_overhead, 4),
        quick_mode=QUICK,
    )
    assert enabled_overhead < MAX_ENABLED_OVERHEAD, (
        f"enabled-registry overhead {enabled_overhead:+.1%} above the "
        f"{MAX_ENABLED_OVERHEAD:.0%} ceiling"
    )
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled-registry overhead {disabled_overhead:+.1%} above the "
        f"{MAX_DISABLED_OVERHEAD:.0%} ceiling"
    )
