"""``bench.py compare A.json B.json``: B against A, metric by metric.

Host-clock metrics are compared against their bound in BENCHMARK.json;
one whose raw repetitions spread wider than that bound (quartile
distance over median, in either file) is ``unresolved``, not unchanged.
Sim-clock metrics are exact for a simulator seed: with equal seeds they
must be identical, with different seeds they are compared against
:data:`SIM_BOUND`.  A workload that only one file has counts as failed.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List

HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIM_BOUND = 0.01
FAILED_SHARE_BOUND = 0.005  # absolute: the share is 0 on two workloads
BAD = ("regressed", "differs", "unresolved")


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    stats = quartiles(values)
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """``{workload: record}`` from a merged results file or a single record."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return {data["workload"]: data} if "workload" in data else data


def verdict(change: float, bound: float, better: str) -> str:
    """``change`` is B minus A, relative (absolute for failed_share)."""
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "within"


def compare_records(a: Dict[str, Any], b: Dict[str, Any],
                    manifest: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    declared = {m["name"]: m for m in manifest["per_layer"] + manifest["end_to_end"]}
    same_world = a["provenance"]["seed"] == b["provenance"]["seed"]
    rows: Dict[str, Dict[str, Any]] = {}
    for metric, before in a["end_to_end"].items():
        after = b["end_to_end"].get(metric)
        if after is None:
            continue
        better = declared[metric]["better"]
        change = (after - before) / before if before else after - before
        if metric in HOST_METRICS:
            bound = declared[metric]["bound"]
            spreads = [spread(record["raw"][metric]) for record in (a, b)
                       if metric in record["raw"]]
            unresolved = bool(spreads) and max(spreads) > bound
            status = "unresolved" if unresolved else verdict(change, bound, better)
        elif same_world:
            bound, status = 0.0, "same" if after == before else "differs"
        elif metric == "failed_share":
            bound = FAILED_SHARE_BOUND
            status = verdict(after - before, bound, better)
        else:
            bound = declared[metric].get("bound", SIM_BOUND)
            status = verdict(change, bound, better)
        rows[metric] = {"a": before, "b": after, "change": change, "bound": bound,
                        "status": status}
    return rows


def compare_files(a_path: str, b_path: str, manifest: Dict[str, Any]) -> int:
    a, b = load(a_path), load(b_path)
    bad = 0
    print(f"{'workload':<16}{'metric':<28}{'A':>12}{'B':>12}{'change':>9}{'bound':>7}  status")
    for workload in sorted(set(a) & set(b)):
        for metric, row in compare_records(a[workload], b[workload], manifest).items():
            bad += row["status"] in BAD
            print(f"{workload:<16}{metric:<28}{row['a']:>12.6g}{row['b']:>12.6g}"
                  f"{row['change']:>+9.2%}{row['bound']:>7.3g}  {row['status']}")
    for workload in sorted(set(a) ^ set(b)):
        bad += 1
        print(f"{workload:<16}only in one file")
    print(f"{bad} metric(s) regressed, differing, unresolved or missing")
    return 1 if bad else 0
