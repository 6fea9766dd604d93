"""RunStream: the live JSONL event protocol for in-flight runs.

Every long-running workload in this repo (a T1 throughput run, a fuzz
campaign, an S1 scale sweep) historically went dark until it finished
and returned one result object.  A :class:`RunStream` is the append-only
JSONL file such a run writes *while executing*, and that anything else
— ``python -m repro.cli tail`` / ``top``, a CI smoke step, a future job
daemon — can read concurrently.

The protocol is four record types, one JSON object per line:

* ``header`` — first line: run kind, run id, stream version, and the
  run's configuration dict;
* ``sample`` — periodic instrument readings from a
  :class:`~repro.obs.timeseries.TelemetrySampler` (simulated time ``t``,
  host seconds since open ``host``, values under ``v``);
* ``event`` — discrete occurrences (safety probes, steering decisions,
  predicted violations, ``fuzz.progress`` generations);
* ``summary`` — the final record: headline results, written by
  :meth:`RunStream.write_summary` (which also closes the stream).

Writes are line-buffered and flushed per record, so a concurrent reader
never sees a torn line: a partially-written trailing line simply has no
newline yet and is withheld by :func:`read_stream` /
:func:`follow_stream` until complete.

Streaming is host-side observability only: nothing here touches
simulated time, the RNG registry, or ``TraceRecord.data``, so trace
digests and decided-log digests are byte-identical with a stream
attached or not (``benchmarks/bench_o3_stream.py`` proves it).
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

STREAM_VERSION = 1

RECORD_TYPES = ("header", "sample", "event", "summary")


class StreamError(Exception):
    """Raised on malformed stream files or misuse of a closed stream."""


class RunStream:
    """Append-only JSONL writer for one in-flight run.

    ``clock`` is the simulated-time source (e.g. ``lambda: sim.now``);
    records carry both that simulated ``t`` and ``host`` seconds since
    the stream opened, the same dual-clock correlation spans use.  When
    no clock is given, ``t`` must be passed per record (fuzz campaigns
    have no simulated clock; they stream execution counts as ``t``).
    """

    def __init__(
        self,
        path: str,
        kind: str,
        run_id: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = path
        self.kind = kind
        self.run_id = run_id if run_id is not None else f"{kind}-{os.getpid()}"
        self.clock = clock
        self._host0 = time.perf_counter()
        self._handle = open(path, "w", encoding="utf-8")
        self.records_written = 0
        self.closed = False
        self._write({
            "type": "header",
            "version": STREAM_VERSION,
            "kind": kind,
            "run": self.run_id,
            "config": config or {},
        })

    # ------------------------------------------------------------------

    def _now(self, t: Optional[float]) -> float:
        if t is not None:
            return t
        if self.clock is not None:
            return self.clock()
        return 0.0

    def _write(self, record: Dict[str, Any]) -> None:
        if self.closed:
            raise StreamError(f"stream {self.path} is closed")
        self._handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        # Flush per record: concurrent tails must see complete lines
        # while the run is still executing.
        self._handle.flush()
        self.records_written += 1

    def write_sample(self, values: Dict[str, Any], t: Optional[float] = None) -> None:
        """One periodic instrument reading (``v`` maps series -> value)."""
        self._write({
            "type": "sample",
            "t": round(self._now(t), 6),
            "host": round(time.perf_counter() - self._host0, 6),
            "v": values,
        })

    def write_event(self, name: str, t: Optional[float] = None, **data: Any) -> None:
        """One discrete occurrence (probe, steer, violation, progress)."""
        self._write({
            "type": "event",
            "t": round(self._now(t), 6),
            "host": round(time.perf_counter() - self._host0, 6),
            "event": name,
            "data": data,
        })

    def write_summary(self, t: Optional[float] = None, **data: Any) -> None:
        """The final record; closes the stream."""
        self._write({
            "type": "summary",
            "t": round(self._now(t), 6),
            "host": round(time.perf_counter() - self._host0, 6),
            "data": data,
        })
        self.close()

    def close(self) -> None:
        if not self.closed:
            self._handle.close()
            self.closed = True

    def __enter__(self) -> "RunStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"RunStream(path={self.path!r}, kind={self.kind!r}, "
                f"records={self.records_written}, closed={self.closed})")


def as_stream(stream: Any, kind: str, clock=None,
              config: Optional[Dict[str, Any]] = None) -> Optional[RunStream]:
    """Coerce a ``stream=`` option into a live :class:`RunStream`.

    Experiments accept either an already-open :class:`RunStream` (shared
    across phases, e.g. an S1 sweep streaming several world sizes into
    one file) or a filesystem path to open; ``None`` passes through.
    """
    if stream is None:
        return None
    if isinstance(stream, RunStream):
        return stream
    return RunStream(str(stream), kind=kind, clock=clock, config=config)


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------


def parse_record(line: str) -> Dict[str, Any]:
    """Parse and validate one stream line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamError(f"invalid stream line: {line[:80]!r}") from exc
    if not isinstance(record, dict) or record.get("type") not in RECORD_TYPES:
        raise StreamError(f"unknown stream record: {line[:80]!r}")
    return record


def read_stream(path: str) -> List[Dict[str, Any]]:
    """Read every complete record currently in the file.

    A trailing line without a newline (a write in progress) is ignored,
    so reading a live stream is always safe.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.endswith("\n"):
                break  # torn tail: the writer is mid-line
            if line.strip():
                records.append(parse_record(line))
    return records


def follow_stream(
    path: str,
    poll: float = 0.1,
    timeout: Optional[float] = None,
    stop_types: tuple = ("summary",),
) -> Iterator[Dict[str, Any]]:
    """Yield records as the writer appends them (``tail -f`` semantics).

    Terminates when a record whose type is in ``stop_types`` is seen
    (the summary marks the run finished) or after ``timeout`` seconds
    of polling (counted in ``poll`` sleeps) without the stream ending.
    The file may not exist yet when following starts; the reader waits
    for it.
    """
    if poll <= 0:
        raise ValueError(f"poll must be positive, got {poll!r}")
    sleeps_left = None if timeout is None else math.ceil(timeout / poll)
    position = 0
    buffer = ""
    while True:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(position)
                chunk = handle.read()
                position = handle.tell()
            buffer += chunk
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if not line.strip():
                    continue
                record = parse_record(line)
                yield record
                if record["type"] in stop_types:
                    return
        if sleeps_left is not None:
            if sleeps_left <= 0:
                return
            sleeps_left -= 1
        time.sleep(poll)


def stream_series(records: List[Dict[str, Any]]) -> Dict[str, List[tuple]]:
    """Fold a stream's sample records into per-series ``(t, value)`` lists."""
    series: Dict[str, List[tuple]] = {}
    for record in records:
        if record.get("type") != "sample":
            continue
        t = record.get("t", 0.0)
        for name, value in (record.get("v") or {}).items():
            series.setdefault(name, []).append((t, value))
    return series


__all__ = [
    "STREAM_VERSION",
    "RECORD_TYPES",
    "RunStream",
    "StreamError",
    "as_stream",
    "follow_stream",
    "parse_record",
    "read_stream",
    "stream_series",
]
