"""Structured trace log.

Every interesting action in a simulation (message send/deliver/drop,
timer fire, checkpoint exchange, steering decision, choice resolution)
is appended to a :class:`TraceLog` as a :class:`TraceRecord`.  Tests and
benchmarks assert against the trace instead of scraping stdout.

When causal tracing is enabled (see :mod:`repro.obs.causal`), each
record additionally carries a ``causal`` stamp — event id, trace id
and cause link.  The stamp lives *outside* ``data`` so
trace digests (computed over time/category/node/data only) are
byte-identical with tracing on or off.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced action.

    ``category`` is a dotted string such as ``"net.deliver"`` or
    ``"runtime.steer"``; ``node`` is the acting node id (or ``None`` for
    global events); ``data`` carries event-specific fields; ``causal``
    is the optional causal stamp (``None`` unless tracing is enabled).
    """

    time: float
    category: str
    node: Optional[int]
    data: Dict[str, Any] = field(default_factory=dict)
    causal: Optional[Dict[str, Any]] = None


class TraceLog:
    """An append-only in-memory log of :class:`TraceRecord` objects.

    Every record of the run is kept, so :func:`trace_digest` always
    covers the whole run.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # When causal tracing is on, the tracer supplies a stamp for
        # each appended record (see repro.obs.causal.CausalTracer).
        self.tracer: Optional[Any] = None
        self._records: List[TraceRecord] = []
        self._counts: Counter = Counter()

    def record(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **data: Any,
    ) -> None:
        """Append a record (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        tracer = self.tracer
        if tracer is None:
            causal = None
        else:
            # The stamp the tracer staged for this record, else a link
            # to the executing event.  Inlined, not a tracer method: it
            # runs once per record on the simulator hot path.
            causal = tracer._pending
            if causal is not None:
                tracer._pending = None
            else:
                current = tracer._current
                if current:
                    last = current[-1]
                    causal = {"trace": tracer._events[last - 1][0], "in": last}
        self._records.append(
            TraceRecord(time=time, category=category, node=node, data=data,
                        causal=causal)
        )
        self._counts[category] += 1

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        since: float = 0.0,
    ) -> List[TraceRecord]:
        """Return records matching the filters, in chronological order.

        ``category`` matches exactly or as a dotted prefix: selecting
        ``"net"`` returns ``"net.deliver"`` and ``"net.drop"`` records.
        Records are appended in nondecreasing time order (the simulated
        clock never runs backwards), so ``since`` binary-searches to its
        start position instead of scanning from the head.
        """
        lo = 0
        if since > 0.0:
            lo = bisect_left(self._records, since, key=lambda r: r.time)
        out = []
        for index in range(lo, len(self._records)):
            rec = self._records[index]
            if node is not None and rec.node != node:
                continue
            if category is not None:
                if rec.category != category and not rec.category.startswith(category + "."):
                    continue
            out.append(rec)
        return out

    def count(self, category: str) -> int:
        """Number of records with exactly this category."""
        return self._counts[category]

    def category_counts(self) -> Dict[str, int]:
        """Record counts per exact category (a fresh dict)."""
        return dict(self._counts)

    def clear(self) -> None:
        """Discard all records."""
        self._records.clear()
        self._counts.clear()

    def dump_jsonl(self, path: str, category: Optional[str] = None) -> int:
        """Write records (optionally filtered by category prefix) as
        JSON lines; returns the number of records written.

        The format is one object per line with ``time``, ``category``,
        ``node``, the causal stamp under ``causal`` (when present), and
        the record's data fields inlined — loadable by any log tooling.
        A data field whose name collides with one of the envelope
        fields is preserved under a ``data_`` prefix (``data_time``,
        ``data_node``, ...) instead of being dropped.
        """
        records = self.select(category=category) if category else self._records
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                row = {"time": record.time, "category": record.category,
                       "node": record.node}
                if record.causal is not None:
                    row["causal"] = _jsonable(record.causal)
                for key, value in record.data.items():
                    while key in row:
                        key = f"data_{key}"
                    row[key] = _jsonable(value)
                handle.write(json.dumps(row) + "\n")
                written += 1
        return written

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"TraceLog(records={len(self)}, enabled={self.enabled})"


def trace_digest(trace: TraceLog) -> str:
    """SHA-256 over the canonical rendering of every trace record.

    The determinism contract: identical ``(configuration, seed)`` runs
    must produce identical digests; any nondeterminism anywhere in the
    stack (an unnamed RNG, wall-clock leakage, unordered iteration)
    shows up as a digest mismatch long before it shows up as a flaky
    experiment.  Causal stamps are not part of the rendering.
    """
    h = hashlib.sha256()
    for rec in trace:
        row = {"t": rec.time, "c": rec.category, "n": rec.node,
               "d": _jsonable(rec.data)}
        h.update(json.dumps(row, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _jsonable(value: Any) -> Any:
    """Best-effort JSON-safe conversion for trace data fields."""
    import dataclasses

    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Messages (and other dataclass payloads) render as typed field
        # dicts, not reprs, so JSONL dumps round-trip through json.loads.
        # Duck-typed msg_type() avoids importing repro.statemachine here.
        msg_type = getattr(value, "msg_type", None)
        label = msg_type() if callable(msg_type) else type(value).__name__
        row: Dict[str, Any] = {"type": label}
        for f in dataclasses.fields(value):
            key = f.name
            while key in row:
                key = f"field_{key}"
            row[key] = _jsonable(getattr(value, f.name))
        return row
    return repr(value)


__all__ = ["TraceRecord", "TraceLog", "trace_digest"]
