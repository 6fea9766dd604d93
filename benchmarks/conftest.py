"""Shared helpers for the experiment benchmarks.

Each ``bench_*.py`` regenerates one table/figure from the paper (see
DESIGN.md's experiment index) and prints a paper-vs-measured comparison.
Run with::

    pytest benchmarks/ --benchmark-only -s

Every bench module also persists a machine-readable result: tables
rendered through :func:`print_table` and metrics registered through
:func:`record_metrics` are accumulated per bench id (the ``<id>`` in
``bench_<id>_*.py``) and written to ``BENCH_<ID>.json`` at the repo
root when the session ends, together with per-module wall time and the
current commit.  ``python -m repro.cli bench <id>`` runs one suite and
prints the JSON path.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]

# Registry of bench ids -> one-line descriptions.  ``python -m repro.cli
# bench <id>`` resolves ids by filename glob, so this is documentation
# plus a guard: a bench module whose id is missing here fails setup,
# keeping the table in sync with the files.
KNOWN_BENCH_IDS: Dict[str, str] = {
    "E1": "development-effort metrics",
    "E2": "RandTree join-phase depth",
    "E3": "RandTree subtree failure + rejoin depth",
    "E4": "gossip peer choice on heterogeneous links",
    "E5": "content-distribution next-block strategy",
    "E6": "Paxos proposer choice over a loaded WAN",
    "E7": "consequence-prediction depth/cost sweep",
    "A1": "checkpoint staleness sensitivity",
    "A2": "lookahead depth sweep",
    "A4": "adaptation under link degradation",
    "A5": "steady churn",
    "A6": "cluster-size scaling",
    "A7": "safety under chaos",
    "O1": "observability overhead",
    "O2": "causal tracing overhead",
    "O3": "streaming telemetry overhead (sampler + RunStream)",
    "P1": "prediction hot path (digests, pooling)",
    "P2": "ack-anchored delta checkpoints",
    "R1": "adversarial scenario search (fuzz vs random)",
    "S1": "simulator scale (hot loop, sparse topologies, partial views)",
    "T1": "batched Multi-Paxos throughput under chaos (steering on/off)",
    "T2": "amortized prediction-driven steering throughput (off/static/amortized)",
}

# Per-bench-id accumulators, flushed to BENCH_<ID>.json at session end.
_RESULTS: Dict[str, Dict[str, Any]] = {}
_CURRENT_ID: Optional[str] = None


def bench_id_of(path: Any) -> Optional[str]:
    """The bench id encoded in a module filename (bench_e7_... -> E7)."""
    parts = Path(str(path)).stem.split("_")
    if len(parts) >= 2 and parts[0] == "bench":
        return parts[1].upper()
    return None


def bench_json_path(bench_id: str) -> Path:
    """Where ``BENCH_<ID>.json`` lives (repo root)."""
    return REPO_ROOT / f"BENCH_{bench_id.upper()}.json"


def _record_for(bench_id: str) -> Dict[str, Any]:
    return _RESULTS.setdefault(
        bench_id, {"metrics": {}, "tables": [], "wall_time_s": 0.0}
    )


def record_metrics(bench_id: str, **metrics: Any) -> None:
    """Register headline metrics for a bench id (merged into its JSON)."""
    _record_for(bench_id.upper())["metrics"].update(metrics)


def print_table(title: str, headers, rows) -> None:
    """Render a small aligned comparison table to stdout (and record it
    into the current bench module's JSON result)."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    if _CURRENT_ID is not None:
        _record_for(_CURRENT_ID)["tables"].append(
            {
                "title": title,
                "headers": [str(h) for h in headers],
                "rows": [[str(c) for c in row] for row in rows],
            }
        )


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or None
    except OSError:
        return None


def write_bench_json(bench_id: str) -> Path:
    """Write/update ``BENCH_<ID>.json`` from the accumulated record."""
    bench_id = bench_id.upper()
    record = _record_for(bench_id)
    path = bench_json_path(bench_id)
    payload = {
        "bench": bench_id,
        "commit": _git_commit(),
        "wall_time_s": round(record["wall_time_s"], 3),
        "metrics": record["metrics"],
        "tables": record["tables"],
    }
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


# ----------------------------------------------------------------------
# pytest hooks: attribute tables/durations to bench ids, flush at exit
# ----------------------------------------------------------------------

def pytest_runtest_setup(item) -> None:
    global _CURRENT_ID
    _CURRENT_ID = bench_id_of(item.fspath)
    if _CURRENT_ID is not None and _CURRENT_ID not in KNOWN_BENCH_IDS:
        raise RuntimeError(
            f"bench id {_CURRENT_ID!r} is not registered in "
            f"benchmarks/conftest.py KNOWN_BENCH_IDS"
        )


def pytest_runtest_logreport(report) -> None:
    if report.when != "call":
        return
    bench_id = bench_id_of(report.fspath)
    if bench_id is not None:
        _record_for(bench_id)["wall_time_s"] += report.duration


def pytest_sessionfinish(session, exitstatus) -> None:
    for bench_id in sorted(_RESULTS):
        path = write_bench_json(bench_id)
        print(f"\nbench results -> {path}")
