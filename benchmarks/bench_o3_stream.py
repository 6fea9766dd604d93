"""O3 — streaming telemetry overhead: sampler + RunStream on the T1
throughput workload.

Streaming a run must be close to free and must never perturb it.  This
bench pins both halves of that contract:

* **Overhead** — the T1 quick workload (batched Multi-Paxos under
  message chaos, closed-loop client load) timed best-of-``REPEATS``
  with streaming off vs. a 1 Hz :class:`TelemetrySampler` writing
  samples, safety-probe events, and the final summary to a
  :class:`RunStream` JSONL file.  Enabled overhead must stay under
  ``MAX_ENABLED_OVERHEAD`` (<5%).
* **Decided-log neutrality** — ``state_digest`` (every replica's chosen
  log + execution order) must be byte-identical streaming on/off: the
  sampler reads cluster state on its own event-queue tag and never
  mutates it.
* **Trace neutrality** — T1 runs with tracing disabled, so a second,
  fully-traced workload (the canonical 16-node exposed-gossip run) pins
  ``trace_digest`` byte-identical with a sampler attached vs. not.

The stream captured from the timed run is left at ``RUN_STREAM.jsonl``
in the repo root (CI uploads it next to ``BENCH_O3.json``), and every
record in it must parse as a valid stream record.
"""

import os
import statistics
import time

from repro.apps.gossip import GossipConfig, make_exposed_gossip_factory
from repro.choice.resolvers import RandomResolver
from repro.eval import run_throughput_experiment
from repro.obs import TelemetrySampler
from repro.obs.stream import read_stream
from repro.sim.trace import trace_digest
from repro.statemachine import Cluster

from conftest import REPO_ROOT, print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# The T1 quick workload (matches bench_t1_throughput.py quick mode).
TOTAL = 4_000 if QUICK else 20_000
HORIZON = 15.0 if QUICK else 30.0
SEED = 1
CADENCE = 1.0
REPEATS = 7 if QUICK else 5
MAX_ENABLED_OVERHEAD = 0.05

STREAM_PATH = REPO_ROOT / "RUN_STREAM.jsonl"


def _run_t1(stream=None):
    start = time.perf_counter()
    result = run_throughput_experiment(
        steering=True, seed=SEED, total_requests=TOTAL, horizon=HORIZON,
        stream=stream, telemetry_cadence=CADENCE,
    )
    return time.perf_counter() - start, result


def test_o3_stream_overhead_and_digest_neutrality():
    # Interleaved off/on pairs with a median-of-ratios estimator: the
    # quick workload runs ~0.1 s wall, where run-to-run scheduler noise
    # (±10%) dwarfs the true streaming cost, so paired ratios — each
    # pair sharing the same machine conditions — are what isolate it.
    ratios = []
    off_times, on_times = [], []
    off_result = on_result = None
    for _ in range(REPEATS):
        off_elapsed, off_result = _run_t1(stream=None)
        on_elapsed, on_result = _run_t1(stream=str(STREAM_PATH))
        off_times.append(off_elapsed)
        on_times.append(on_elapsed)
        ratios.append(on_elapsed / off_elapsed)
    off_time, on_time = min(off_times), min(on_times)
    overhead = statistics.median(ratios) - 1.0

    # Digest neutrality: the decided logs are byte-identical on/off.
    assert on_result.state_digest == off_result.state_digest, (
        "streaming perturbed the decided log: "
        f"{on_result.state_digest} != {off_result.state_digest}"
    )
    assert on_result.committed == off_result.committed
    assert on_result.safe and off_result.safe

    # The captured stream is complete, valid JSONL with all four
    # record types and a per-second sample cadence.
    records = read_stream(str(STREAM_PATH))
    types = [r["type"] for r in records]
    samples = types.count("sample")
    assert types[0] == "header" and types[-1] == "summary"
    assert samples == int(HORIZON / CADENCE), (
        f"expected {int(HORIZON / CADENCE)} samples, got {samples}"
    )
    assert any(t == "event" for t in types)

    print_table(
        f"O3: T1 streaming overhead ({TOTAL} requests, {HORIZON:.0f}s "
        f"horizon, {CADENCE}s cadence, {REPEATS} interleaved pairs)",
        ("mode", "best seconds", "committed", "median overhead"),
        [
            ("stream off", f"{off_time:.3f}", off_result.committed, "—"),
            ("stream on", f"{on_time:.3f}", on_result.committed,
             f"{overhead * 100:+.1f}%"),
        ],
    )
    record_metrics(
        "O3",
        total_requests=TOTAL,
        horizon_s=HORIZON,
        cadence_s=CADENCE,
        off_seconds=round(off_time, 4),
        on_seconds=round(on_time, 4),
        enabled_overhead=round(overhead, 4),
        stream_records=len(records),
        stream_samples=samples,
        state_digest_identical=on_result.state_digest == off_result.state_digest,
        quick_mode=QUICK,
    )
    assert overhead < MAX_ENABLED_OVERHEAD, (
        f"streaming overhead {overhead * 100:.1f}% exceeds the "
        f"{MAX_ENABLED_OVERHEAD * 100:.0f}% budget"
    )


def _gossip_digest(with_sampler: bool) -> str:
    """The canonical traced 16-node gossip run, sampler on/off."""
    config = GossipConfig(n=16, rumor_count=6, publish_interval=0.1)
    cluster = Cluster(16, make_exposed_gossip_factory(config), seed=1,
                      resolver_factory=lambda nid: RandomResolver(1))
    if with_sampler:
        sampler = TelemetrySampler(cluster.sim, cadence=0.25)
        sampler.watch("net.messages", lambda: cluster.network.messages_sent)
        sampler.watch("sim.events", lambda: cluster.sim.events_dispatched)
        sampler.start(until=8.0)
    cluster.start_all()
    cluster.run(until=8.0)
    if with_sampler:
        assert sampler.samples_taken == 32
    return trace_digest(cluster.sim.trace)


def test_o3_trace_digest_neutral_under_sampling():
    without = _gossip_digest(with_sampler=False)
    with_sampling = _gossip_digest(with_sampler=True)
    record_metrics("O3", trace_digest_identical=without == with_sampling)
    assert without == with_sampling, (
        "sampler ticks changed the trace digest: "
        f"{without} != {with_sampling}"
    )
