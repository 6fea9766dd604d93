"""The metrics registry: counters, gauges, histograms with label sets.

:class:`MetricsRegistry` is the one substrate the runtime, the steering
module, the reliability layer and the chaos interposer count into: named
instruments with optional label sets, introspectable as a single
:meth:`MetricsRegistry.snapshot`, and cheap enough to leave on in
production runs.  Each count is one :class:`Counter` whose writer holds
a handle to it; a component's ``stats`` is a plain dict read off those
counters.

Cost model:

* :class:`Counter` and :class:`Gauge` are *always on* — an increment is
  one attribute add, so they count whatever the enabled flag says;
* :class:`Histogram` observations and spans (see :mod:`repro.obs.spans`)
  are the *timed* instruments and are gated by ``registry.enabled`` —
  with the registry disabled they are no-ops that never touch the host
  clock, which is what makes disabling observability ~free
  (``benchmarks/bench_o1_obs.py`` measures both modes).

Registries are cheap objects.  Components default to a private registry
per instance (keeping unit tests and determinism comparisons isolated);
pass a shared registry (e.g. one per cluster) with per-node labels to
aggregate a whole run, and :func:`repro.obs.report.collect_cluster_metrics`
folds them back together either way.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from .spans import NULL_SPAN, Span, SpanStats

LabelSet = Tuple[Tuple[str, Any], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted(labels.items()))


def render_key(name: str, labels: LabelSet) -> str:
    """Canonical ``name{k=v,...}`` rendering of an instrument key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically-growing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({render_key(self.name, self.labels)}={self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({render_key(self.name, self.labels)}={self.value})"


class Histogram:
    """Summary statistics (count/sum/min/max) plus streaming quantiles.

    Observations are gated by the owning registry's ``enabled`` flag.

    Quantiles are *streaming estimates* over fixed log-spaced bucket
    edges: positive values land in sparse bucket
    ``floor(16·log10(v))`` (16 buckets per decade, ~15% relative width),
    zeros/negatives in a dedicated underflow bucket.  :meth:`quantile`
    reads p50/p95/p99 off the cumulative bucket counts without storing
    observations — constant memory, one ``log10`` per observe, and the
    estimate is within half a bucket (<±8%) of the true quantile.
    """

    QUANTILE_BUCKETS_PER_DECADE = 16
    DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_registry", "_qcounts", "_under_count")

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._registry = registry
        self._qcounts: Dict[int, int] = {}
        self._under_count = 0

    def observe(self, value: float) -> None:
        if self._registry is not None and not self._registry.enabled:
            return
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            index = math.floor(
                self.QUANTILE_BUCKETS_PER_DECADE * math.log10(value))
            self._qcounts[index] = self._qcounts.get(index, 0) + 1
        else:
            self._under_count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Streaming estimate of the ``q``-quantile (0 < q <= 1).

        Walks the sparse log buckets cumulatively and returns the
        geometric midpoint of the bucket holding the target rank,
        clamped into the observed [min, max] range.  Ranks that fall in
        the underflow bucket (zero/negative observations) return the
        recorded minimum.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        if not self.count:
            return None
        rank = q * self.count
        if rank <= self._under_count:
            return self.min
        seen = float(self._under_count)
        per_decade = self.QUANTILE_BUCKETS_PER_DECADE
        for index in sorted(self._qcounts):
            seen += self._qcounts[index]
            if seen >= rank:
                midpoint = 10.0 ** ((index + 0.5) / per_decade)
                return max(self.min, min(self.max, midpoint))
        return self.max

    def quantiles(self, qs: Tuple[float, ...] = DEFAULT_QUANTILES) -> Dict[str, float]:
        """The standard percentile readout (``{"p50": ..., ...}``)."""
        return {f"p{int(q * 100)}": self.quantile(q) for q in qs}

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }
        if self.count:
            out.update(self.quantiles())
        return out

    def __repr__(self) -> str:
        return (f"Histogram({render_key(self.name, self.labels)} "
                f"count={self.count}, mean={self.mean:.6g})")


class MetricsRegistry:
    """Process- or component-wide store of named, labelled instruments.

    The same ``(name, labels)`` pair always returns the same instrument
    object, so components can hold handles and increment without
    lookups.  ``enabled`` gates the timed instruments (histograms and
    spans); counters and gauges always record.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        # Span stats live here too, so one snapshot covers everything;
        # populated by repro.obs.spans.
        self._spans: Dict[Tuple[str, LabelSet], Any] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _labelset(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _labelset(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _labelset(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], registry=self)
        return instrument

    def span(self, name: str, clock=None, **labels: Any):
        """A timing span (see :mod:`repro.obs.spans`); a shared no-op
        object when the registry is disabled."""
        if not self.enabled:
            return NULL_SPAN
        key = (name, _labelset(labels))
        stats = self._spans.get(key)
        if stats is None:
            stats = self._spans[key] = SpanStats(name, key[1])
        return Span(stats, clock)

    def span_stats(self, name: str, **labels: Any):
        """The accumulated stats for one span key (or ``None``)."""
        return self._spans.get((name, _labelset(labels)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {render_key(c.name, c.labels): c.value
                for c in self._counters.values()}

    def gauges(self) -> Dict[str, float]:
        return {render_key(g.name, g.labels): g.value
                for g in self._gauges.values()}

    def snapshot(self) -> Dict[str, Any]:
        """Everything the registry holds, as plain JSON-able dicts."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                render_key(h.name, h.labels): h.summary()
                for h in self._histograms.values()
                if h.count
            },
            "spans": {
                render_key(s.name, s.labels): s.summary()
                for s in self._spans.values()
                if s.count
            },
        }

    def reset(self) -> None:
        """Zero every instrument in place: handles, held spans included,
        stay valid and keep recording into this registry."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        # Zeroed means as constructed, so the constructors are run again.
        for hist in self._histograms.values():
            hist.__init__(hist.name, hist.labels, registry=self)
        for stats in self._spans.values():
            stats.__init__(stats.name, stats.labels)

    def __repr__(self) -> str:
        return (f"MetricsRegistry(enabled={self.enabled}, "
                f"counters={len(self._counters)}, gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, spans={len(self._spans)})")


__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "render_key",
]
