"""Run reports: one uniform metrics document per completed run.

:func:`collect_cluster_metrics` walks a cluster (anything with ``sim``,
``network``, and ``nodes``) and assembles the uniform ``metrics``
section every experiment report carries: the simulator's tallies, trace
category counts, transport counters, the reliability layer's stats when
one is installed, and a per-node section folding each CrystalBall
runtime's registry (counters, spans, steering, prediction totals).

:class:`RunReport` wraps that dict with JSON and Markdown renderers —
``python -m repro.cli report <experiment>`` is the command-line front
end, and CI uploads the JSON artifact alongside the ``BENCH_*.json``
results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

TOP_TRACE_CATEGORIES = 20


def _trace_section(trace) -> Dict[str, Any]:
    counts = trace.category_counts()
    top = dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_TRACE_CATEGORIES])
    return {"records": len(trace), "categories": len(counts), "top": top}


def _network_section(network, transport=None) -> Dict[str, Any]:
    section = {
        "messages_sent": network.messages_sent,
        "messages_delivered": network.messages_delivered,
        "messages_dropped": network.messages_dropped,
        "messages_duplicated": network.messages_duplicated,
        "bytes_sent": network.bytes_sent,
    }
    # A ReliableLayer (or any transport wrapper with its own stats)
    # reports its protocol counters alongside the raw transport's.
    if transport is not None and transport is not network:
        stats = getattr(transport, "stats", None)
        if stats is not None:
            section["reliable"] = dict(stats)
            pending = getattr(transport, "pending_count", None)
            if pending is not None:
                section["reliable"]["pending"] = pending
    return section


def node_metrics(node) -> Dict[str, Any]:
    """The per-node metrics section (runtime counters, spans, steering)."""
    section: Dict[str, Any] = {"up": node.is_up}
    runtime = getattr(node, "crystalball", None)
    if runtime is None:
        return section
    section["runtime"] = runtime.stats
    section["epoch"] = runtime.exchange.epoch
    section["steering"] = runtime.steering.snapshot()
    amortized = getattr(runtime, "amortized", None)
    if amortized is not None:
        section["steering"]["amortized"] = amortized.snapshot()
    spans = runtime.metrics.spans()
    if spans:
        section["spans"] = spans
    summary = getattr(runtime, "last_prediction_summary", None)
    if summary is not None:
        section["prediction"] = dict(summary)
    return section


def collect_cluster_metrics(cluster) -> Dict[str, Any]:
    """The uniform ``metrics`` section for one completed run."""
    sim = cluster.sim
    metrics: Dict[str, Any] = {
        "sim": {
            "now": sim.now,
            "events_dispatched": sim.events_dispatched,
            "pending_events": len(sim.queue),
        },
        "trace": _trace_section(sim.trace),
        "network": _network_section(
            cluster.network, getattr(cluster, "transport", None),
        ),
        "nodes": {node.node_id: node_metrics(node) for node in cluster.nodes},
    }
    return metrics


@dataclass
class RunReport:
    """A rendered run report: title, context, and the metrics tree."""

    title: str
    metrics: Dict[str, Any]
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"title": self.title, "context": self.context, "metrics": self.metrics}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str, sort_keys=True)

    def to_markdown(self) -> str:
        lines: List[str] = [f"# Run report — {self.title}", ""]
        if self.context:
            for key in sorted(self.context):
                lines.append(f"- **{key}**: {self.context[key]}")
            lines.append("")
        global_sections = {k: v for k, v in self.metrics.items() if k != "nodes"}
        for name in sorted(global_sections):
            lines.extend(_markdown_section(f"## {name}", global_sections[name]))
        nodes = self.metrics.get("nodes", {})
        if nodes:
            lines.append("## nodes")
            lines.append("")
            for node_id in sorted(nodes):
                lines.extend(_markdown_section(f"### node {node_id}", nodes[node_id]))
        return "\n".join(lines).rstrip() + "\n"

    def write(self, json_path: Optional[str] = None,
              markdown_path: Optional[str] = None) -> None:
        if json_path:
            with open(json_path, "w", encoding="utf-8") as handle:
                handle.write(self.to_json() + "\n")
        if markdown_path:
            with open(markdown_path, "w", encoding="utf-8") as handle:
                handle.write(self.to_markdown())


def _markdown_section(header: str, data: Any) -> List[str]:
    lines = [header, ""]
    lines.extend(_markdown_rows(data))
    lines.append("")
    return lines


def _markdown_rows(data: Any, prefix: str = "") -> List[str]:
    """Flatten a metrics subtree into a two-column Markdown table."""
    rows: List[tuple] = []

    def walk(node: Any, path: str) -> None:
        if isinstance(node, dict):
            for key in node:
                walk(node[key], f"{path}.{key}" if path else str(key))
        else:
            rows.append((path, node))

    walk(data, prefix)
    if not rows:
        return ["(empty)"]
    lines = ["| metric | value |", "|---|---|"]
    for path, value in rows:
        if isinstance(value, float):
            value = f"{value:.6g}"
        lines.append(f"| {path} | {value} |")
    return lines


__all__ = ["RunReport", "collect_cluster_metrics", "node_metrics"]
