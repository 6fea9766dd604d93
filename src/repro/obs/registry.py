"""The metrics registry: counters and spans with label sets.

:class:`MetricsRegistry` is what a CrystalBall runtime and its steering
module count into: named counters and host-time spans (see
:mod:`repro.obs.spans`) with optional label sets.  Each count is one
:class:`Counter` whose writer holds a handle to it; the runtime's
``stats`` is a plain dict read off those counters.  An increment is one
attribute add, so counters are always on.  Spans read the host clock,
so only the runtime's coarse operations (a prediction pass, a choice, a
checkpoint broadcast, a scored policy round) open one.

A runtime shares its registry with the parts it owns, labelled by node,
and :func:`repro.obs.report.collect_cluster_metrics` reads each
runtime's spans.  The transport, the chaos interposer and the
reliability layer keep plain integer counts instead: nothing reads
them by name.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .spans import Span, SpanStats

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


class MetricsRegistry:
    """Process- or component-wide store of named, labelled instruments.

    The same ``(name, labels)`` pair always returns the same instrument
    object, so components can hold handles and increment without
    lookups.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._spans: Dict[Tuple[str, LabelSet], SpanStats] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _labelset(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def span(self, name: str, **labels: Any) -> Span:
        """A host-time span (see :mod:`repro.obs.spans`)."""
        key = (name, _labelset(labels))
        stats = self._spans.get(key)
        if stats is None:
            stats = self._spans[key] = SpanStats(name, key[1])
        return Span(stats)

    def span_stats(self, name: str, **labels: Any):
        """The accumulated stats for one span key (or ``None``)."""
        return self._spans.get((name, _labelset(labels)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {render_key(c.name, c.labels): c.value
                for c in self._counters.values()}

    def spans(self) -> Dict[str, Dict[str, Any]]:
        """The summary of every span opened at least once, by key."""
        return {render_key(s.name, s.labels): s.summary()
                for s in self._spans.values() if s.count}

    def __repr__(self) -> str:
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"spans={len(self._spans)})")


__all__ = [
    "MetricsRegistry",
    "Counter",
    "render_key",
]
