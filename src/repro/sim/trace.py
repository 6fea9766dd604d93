"""Structured trace log.

Every interesting action in a simulation (message send/deliver/drop,
timer fire, checkpoint exchange, steering decision, choice resolution)
is appended to a :class:`TraceLog` and reads back as a
:class:`TraceRecord`.  Tests and benchmarks assert against the trace
instead of scraping stdout.  A record's optional causal stamp (see
:mod:`repro.obs.causal`) lives *outside* ``data``, so trace digests
are byte-identical with causal tracing on or off.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple


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
    """An append-only in-memory log of trace records, kept as rows.

    A row is one flat tuple ``(time, category, node, keys, *values)``:
    ``keys`` names the data fields (one shared tuple per distinct key
    set) and ``values`` holds them in the same order.  Causal stamps sit
    in a side table keyed by row index.  :class:`TraceRecord` objects
    are built only when the log is read.  Every record of the run is
    kept, so :func:`trace_digest` always covers the whole run.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer: Optional[Any] = None  # a CausalTracer stamps each record
        self._rows: List[tuple] = []
        self._keysets: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._causal: Dict[int, Dict[str, Any]] = {}

    def record(self, time: float, category: str, node: Optional[int] = None,
               **data: Any) -> None:
        """Append a record (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        rows = self._rows
        tracer = self.tracer
        if tracer is not None:
            # The stamp the tracer staged for this record, else a link
            # to the executing event.  Inlined, not a tracer method: it
            # runs once per record on the simulator hot path.
            causal = tracer._pending
            if causal is not None:
                tracer._pending = None
                self._causal[len(rows)] = causal
            elif tracer._current:
                last = tracer._current[-1]
                self._causal[len(rows)] = {"trace": tracer._events[last - 1][0], "in": last}
        keys = tuple(data)
        rows.append((time, category, node, self._keysets.setdefault(keys, keys),
                     *data.values()))

    def append(self, record: TraceRecord) -> None:
        """Append a pre-built record and its stamp: the inverse of iteration."""
        keys = tuple(record.data)
        if record.causal is not None:
            self._causal[len(self._rows)] = record.causal
        self._rows.append((record.time, record.category, record.node,
                           self._keysets.setdefault(keys, keys), *record.data.values()))

    def _build(self, index: int, row: tuple) -> TraceRecord:
        return TraceRecord(row[0], row[1], row[2], dict(zip(row[3], row[4:])),
                           self._causal.get(index))

    def _matching(self, category: Optional[str], node: Optional[int], since: float) -> Iterator:
        """``(index, row)`` of every row passing :meth:`select`'s filters."""
        rows = self._rows
        lo = bisect_left(rows, since, key=itemgetter(0)) if since > 0.0 else 0
        prefix = f"{category}."
        for index in range(lo, len(rows)):
            row = rows[index]
            if node is not None and row[2] != node:
                continue
            if category is not None and row[1] != category and not row[1].startswith(prefix):
                continue
            yield index, row

    def select(self, category: Optional[str] = None, node: Optional[int] = None,
               since: float = 0.0) -> List[TraceRecord]:
        """Return records matching the filters, in chronological order.

        ``category`` matches exactly or as a dotted prefix: selecting
        ``"net"`` returns ``"net.deliver"`` and ``"net.drop"`` records.
        Records are appended in nondecreasing time order (the simulated
        clock never runs backwards), so ``since`` binary-searches to its
        start position instead of scanning from the head.
        """
        return [self._build(index, row) for index, row in self._matching(category, node, since)]

    def count(self, category: str) -> int:
        """Number of records with exactly this category."""
        return self.category_counts().get(category, 0)

    def category_counts(self) -> Dict[str, int]:
        """Record counts per exact category, in first-seen order (a fresh dict)."""
        return dict(Counter(map(itemgetter(1), self._rows)))

    def clear(self) -> None:
        """Discard all records."""
        self._rows.clear()
        self._causal.clear()

    def dump_jsonl(self, path: str, category: Optional[str] = None) -> int:
        """Write records (optionally filtered by category prefix) as
        JSON lines; returns the number of records written.

        One object per line: ``time``, ``category``, ``node``, the causal
        stamp under ``causal`` (when present), then the data fields
        inlined.  A data field named like an envelope field keeps a
        ``data_`` prefix (``data_time``, ``data_node``, ...).
        """
        written = 0
        stamp_of, encode = self._causal.get, json.JSONEncoder().encode
        with open(path, "w", encoding="utf-8") as handle:
            for index, row in self._matching(category or None, None, 0.0):
                out = {"time": row[0], "category": row[1], "node": row[2]}
                causal = stamp_of(index)
                if causal is not None:
                    out["causal"] = _jsonable(causal)
                for key, value in zip(row[3], row[4:]):
                    while key in out:
                        key = f"data_{key}"
                    out[key] = _jsonable(value)
                handle.write(encode(out) + "\n")
                written += 1
        return written

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(self._build, count(), self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"TraceLog(records={len(self)}, enabled={self.enabled})"


def trace_digest(trace: TraceLog) -> str:
    """SHA-256 over the canonical rendering of every trace record.

    The determinism contract: identical ``(configuration, seed)`` runs
    must produce identical digests, so nondeterminism anywhere in the
    stack (an unnamed RNG, wall-clock leakage, unordered iteration)
    shows up here first.  Causal stamps are not part of the rendering.
    """
    h = hashlib.sha256()
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call
    for row in trace._rows:
        data = {str(key): _jsonable(value) for key, value in zip(row[3], row[4:])}
        h.update(encode({"t": row[0], "c": row[1], "n": row[2], "d": data}).encode("utf-8") + b"\n")
    return h.hexdigest()


def _jsonable(value: Any) -> Any:
    """Best-effort JSON-safe conversion for trace data fields."""
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [_jsonable(v) for v in value]
        try:
            return sorted(items)
        except TypeError:  # mixed element types: order by type, then text
            return sorted(items, key=lambda v: (type(v).__name__, json.dumps(v, sort_keys=True)))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Messages (and other dataclasses) render as typed field dicts that
        # round-trip through json.loads; msg_type() is duck-typed.
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
