"""O2 — causal tracing overhead and digest neutrality.

Causal tracing (``Cluster(causal=True)``) stamps every send, delivery,
timer fire, and choice resolution with trace ids and logical clocks.
The contract that makes it deployable:

* **off by default, ~0% cost**: with ``causal=False`` the hot path pays
  one attribute fetch + ``None`` test per event — the off mode *is* the
  baseline, so we measure it twice and report the spread as the noise
  floor;
* **cheap when on**: the P1 workload deployed end-to-end — a 16-node
  exposed-choice RandTree cluster running the CrystalBall runtime
  (checkpoint gossip + periodic depth-4 consequence prediction) for 20
  simulated seconds — must run with < 10% host-time overhead with
  tracing enabled.  Prediction sandboxes never record, so the absolute
  stamping cost lands only on the live event loop; the bare-simulator
  microcosm (no runtime, every event on the hot path) is measured and
  reported separately as the honest worst case, with the per-event cost
  in microseconds;
* **byte-identical outputs**: stamps live on ``TraceRecord.causal``,
  outside ``record.data`` — so trace digests are byte-identical with
  tracing on or off, and consequence prediction from the traced
  cluster's snapshot produces byte-identical reports (violations and
  leaf-world digests).

Results land in ``BENCH_O2.json``.
"""

import os

from repro.apps.randtree import RandTreeConfig, make_exposed_factory, randtree_properties
from repro.choice.resolvers import RandomResolver
from repro.mc import ConsequencePredictor, Explorer, world_from_services
from repro.runtime import install_crystalball
from repro.sim.trace import trace_digest
from repro.statemachine import Cluster

from bench_p1_hotpath import (
    CHAIN_DEPTH,
    N_NODES,
    _leaf_digests,
    _violation_signature,
)
from conftest import print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

BUDGET = 50_000
RUNTIME_BUDGET = 400
SIM_HORIZON = 20.0
REPEATS = 2 if QUICK else 4
MAX_ENABLED_OVERHEAD = 0.10
# The bare-simulator microcosm pays the full per-event stamping cost
# against a microsecond-scale event loop — a deliberate worst case.
# The ceiling is a regression tripwire, not a deployment claim.
MAX_RAW_SIM_OVERHEAD = 0.80

def run_duty_cycle(causal: bool) -> Cluster:
    """The P1 workload deployed: CrystalBall runtime on a 16-node
    exposed RandTree — checkpoint gossip, periodic depth-4 prediction,
    and steering armed — for 20 simulated seconds."""
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(N_NODES, factory, seed=1, causal=causal)
    install_crystalball(
        cluster, factory, properties=randtree_properties(config),
        chain_depth=CHAIN_DEPTH, budget=RUNTIME_BUDGET,
        checkpoint_period=0.5, prediction_period=0.9,
    )
    cluster.start_all()
    cluster.run(until=SIM_HORIZON)
    return cluster


def run_raw_sim(causal: bool) -> Cluster:
    """The bare-simulator microcosm: same cluster, no runtime — every
    wall-clock microsecond is hot-path event processing."""
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(
        N_NODES, factory, seed=1,
        resolver_factory=lambda nid: RandomResolver(1),
        causal=causal,
    )
    cluster.start_all()
    cluster.run(until=SIM_HORIZON)
    return cluster


def predict_from(cluster: Cluster):
    """Depth-4 consequence prediction from the cluster's live state."""
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    world = world_from_services(cluster.services, cluster.nodes,
                               time=cluster.sim.now)
    explorer = Explorer(factory, properties=randtree_properties(config))
    predictor = ConsequencePredictor(
        explorer, chain_depth=CHAIN_DEPTH, budget=BUDGET,
    )
    return predictor.predict(world)


def _interleaved(fns, repeats):
    """Best-of-N wall time per labelled thunk, with the thunks run
    round-robin so clock drift and thermal throttling hit every mode
    equally instead of whichever happened to run last."""
    import time

    best = {label: float("inf") for label in fns}
    results = {}
    for _ in range(repeats):
        for label, fn in fns.items():
            start = time.perf_counter()
            results[label] = fn()
            best[label] = min(best[label], time.perf_counter() - start)
    return best, results


def test_o2_causal_tracing_overhead_and_neutrality():
    times, clusters = _interleaved(
        {
            "off": lambda: run_duty_cycle(False),
            "on": lambda: run_duty_cycle(True),
            "off2": lambda: run_duty_cycle(False),
        },
        repeats=REPEATS,
    )
    off_time, on_time, off2_time = times["off"], times["on"], times["off2"]
    off_cluster, on_cluster = clusters["off"], clusters["on"]

    # The determinism contract, unchanged by tracing: digests hash only
    # (time, category, node, data), and stamps live outside data.
    off_digest = trace_digest(off_cluster.sim.trace)
    on_digest = trace_digest(on_cluster.sim.trace)
    assert on_digest == off_digest, "causal stamps leaked into the trace digest"
    assert len(on_cluster.sim.trace) == len(off_cluster.sim.trace)

    # Tracing must not perturb what prediction explores either.
    off_report = predict_from(off_cluster)
    on_report = predict_from(on_cluster)
    assert on_report.total_states == off_report.total_states
    assert _violation_signature(on_report) == _violation_signature(off_report)
    assert _leaf_digests(on_report) == _leaf_digests(off_report)

    # The on-mode actually traced: every send/deliver is stamped.
    sends = on_cluster.sim.trace.select("net.send")
    assert sends and all(r.causal is not None for r in sends)

    # The worst-case microcosm: bare event loop, no prediction work to
    # amortize against.  Reported per-event so regressions are visible.
    raw_times, raw_clusters = _interleaved(
        {"off": lambda: run_raw_sim(False), "on": lambda: run_raw_sim(True)},
        repeats=4 * REPEATS,
    )
    raw_off_time, raw_on_time = raw_times["off"], raw_times["on"]
    raw_off, raw_on = raw_clusters["off"], raw_clusters["on"]
    assert trace_digest(raw_on.sim.trace) == trace_digest(raw_off.sim.trace)
    raw_events = len([r for r in raw_on.sim.trace if r.causal is not None])
    per_event_us = (raw_on_time - raw_off_time) / max(1, raw_events) * 1e6

    enabled_overhead = on_time / off_time - 1.0
    raw_overhead = raw_on_time / raw_off_time - 1.0
    # causal=False is the default path — the honest "~0% off" claim is
    # that off IS the baseline; the re-measured spread is pure noise.
    noise_floor = abs(off2_time / off_time - 1.0)
    print_table(
        f"O2: {N_NODES}-node CrystalBall duty cycle, {SIM_HORIZON:.0f}s "
        f"simulated, best of {REPEATS}",
        ("workload", "mode", "seconds", "overhead"),
        [
            ("duty cycle", "causal off (baseline)", f"{off_time:.3f}", "—"),
            ("duty cycle", "causal off (re-measured)", f"{off2_time:.3f}",
             f"{off2_time / off_time - 1.0:+.1%} (noise floor)"),
            ("duty cycle", "causal on", f"{on_time:.3f}",
             f"{enabled_overhead:+.1%}"),
            ("bare sim", "causal off", f"{raw_off_time:.3f}", "—"),
            ("bare sim", "causal on", f"{raw_on_time:.3f}",
             f"{raw_overhead:+.1%} ({per_event_us:.1f}us/event)"),
        ],
    )
    record_metrics(
        "O2",
        nodes=N_NODES,
        sim_horizon=SIM_HORIZON,
        trace_records=len(off_cluster.sim.trace),
        causal_events=len([r for r in on_cluster.sim.trace
                           if r.causal is not None]),
        prediction_states=off_report.total_states,
        off_seconds=round(off_time, 4),
        off_remeasured_seconds=round(off2_time, 4),
        on_seconds=round(on_time, 4),
        enabled_overhead=round(enabled_overhead, 4),
        raw_sim_off_seconds=round(raw_off_time, 4),
        raw_sim_on_seconds=round(raw_on_time, 4),
        raw_sim_overhead=round(raw_overhead, 4),
        tracer_cost_per_event_us=round(per_event_us, 2),
        noise_floor=round(noise_floor, 4),
        digests_identical=on_digest == off_digest,
        reports_identical=True,
        quick_mode=QUICK,
    )
    assert enabled_overhead < MAX_ENABLED_OVERHEAD, (
        f"causal-tracing overhead {enabled_overhead:+.1%} above the "
        f"{MAX_ENABLED_OVERHEAD:.0%} ceiling"
    )
    assert raw_overhead < MAX_RAW_SIM_OVERHEAD, (
        f"bare-simulator stamping cost {raw_overhead:+.1%} regressed past "
        f"{MAX_RAW_SIM_OVERHEAD:.0%}"
    )
