"""Observability: the measurement substrate under the runtime.

``repro.obs`` owns the telemetry the rest of the system records into:

* :class:`MetricsRegistry` — counters, gauges, and histograms with
  label sets; counters/gauges always record, timed instruments are
  gated by ``enabled`` (see :mod:`repro.obs.registry` for the cost
  model);
* :class:`~repro.obs.spans.Span` — host-clock timing of runtime
  operations correlated with simulated time;
* :class:`StatsView` — the dict-shaped compatibility views components
  expose as their historical ``stats`` attributes;
* :class:`RunReport` / :func:`collect_cluster_metrics` — the uniform
  per-node run report every experiment emits and
  ``python -m repro.cli report`` renders;
* :mod:`repro.obs.causal` / :mod:`repro.obs.forensics` — opt-in causal
  tracing (trace ids and cause links on trace records, rebuilt into a
  happens-before graph) and the forensics engine that turns stamped
  traces into minimal causal explanations of steering decisions
  (``python -m repro.cli trace``);
* :mod:`repro.obs.timeseries` / :mod:`repro.obs.stream` — streaming
  telemetry: :class:`~repro.obs.timeseries.TelemetrySampler` reads
  probes on a sim-time cadence into bounded downsampling
  :class:`~repro.obs.timeseries.Series` rings, and a
  :class:`~repro.obs.stream.RunStream` JSONL file exposes an in-flight
  run to concurrent tails (``python -m repro.cli tail`` / ``top``).

Components default to private registries, so unit tests and
determinism comparisons stay isolated.
"""

from .causal import (
    CausalContext,
    CausalTracer,
    HappensBeforeGraph,
    HBEvent,
    enable_causal_tracing,
)
from .forensics import (
    CausalExplanation,
    ExplanationStep,
    explain_chain,
    explain_steering,
    explain_violation,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsView,
    render_key,
    stats_view,
)
from .report import RunReport, collect_cluster_metrics, node_metrics, run_report
from .spans import NULL_SPAN, Span, SpanStats
from .stream import (
    RECORD_TYPES,
    STREAM_VERSION,
    RunStream,
    StreamError,
    as_stream,
    follow_stream,
    parse_record,
    read_stream,
    stream_series,
)
from .timeseries import Series, TelemetrySampler


__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "StatsView",
    "stats_view",
    "render_key",
    "Span",
    "SpanStats",
    "NULL_SPAN",
    "RunReport",
    "collect_cluster_metrics",
    "node_metrics",
    "run_report",
    "CausalContext",
    "CausalTracer",
    "HappensBeforeGraph",
    "HBEvent",
    "enable_causal_tracing",
    "CausalExplanation",
    "ExplanationStep",
    "explain_chain",
    "explain_steering",
    "explain_violation",
    "RunStream",
    "StreamError",
    "STREAM_VERSION",
    "RECORD_TYPES",
    "as_stream",
    "follow_stream",
    "parse_record",
    "read_stream",
    "stream_series",
    "Series",
    "TelemetrySampler",
]
