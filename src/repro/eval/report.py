"""Results-report generation.

Regenerates the quantitative content of EXPERIMENTS.md as a Markdown
document by actually running the experiments.  Two scopes:

* ``quick`` — small configurations (minutes): sanity-checks every
  experiment's *shape* on reduced sizes/seed counts;
* ``full`` — the exact configurations the benchmarks use (tens of
  minutes): reproduces the recorded numbers.

Used by ``examples/generate_report.py`` and tested in quick scope.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass
class ReportSection:
    """One experiment's rendered result."""

    experiment: str
    title: str
    headers: Sequence[str]
    rows: List[Tuple]
    note: str = ""

    def to_markdown(self) -> str:
        lines = [f"## {self.experiment} — {self.title}", ""]
        lines.append("| " + " | ".join(str(h) for h in self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        if self.note:
            lines.append("")
            lines.append(self.note)
        lines.append("")
        return "\n".join(lines)


def e1_section() -> ReportSection:
    from ..metrics import compare_randtree

    report = compare_randtree()
    return ReportSection(
        experiment="E1",
        title="development effort (LoC, if-else per handler)",
        headers=("metric", "baseline", "exposed"),
        rows=[
            ("lines of code", report.baseline.loc, report.exposed.loc),
            ("if-else per handler",
             f"{report.baseline.branches_per_handler:.2f}",
             f"{report.exposed.branches_per_handler:.2f}"),
            ("LoC reduction", "", f"{report.loc_reduction:.0%}"),
        ],
        note="Paper: 487 → 280 LoC (−43%); complexity 1.94 → 0.28.",
    )


def tree_sections(n: int, seeds: Sequence[int]) -> List[ReportSection]:
    from .tree_experiment import VARIANTS, run_tree_experiment

    join_rows = []
    rejoin_rows = []
    for variant in VARIANTS:
        joins, rejoins = [], []
        for seed in seeds:
            result = run_tree_experiment(variant, n=n, seed=seed)
            joins.append(result.depth_after_join)
            rejoins.append(result.depth_after_rejoin)
        join_rows.append((variant, f"{statistics.mean(joins):.2f}", joins))
        rejoin_rows.append((variant, f"{statistics.mean(rejoins):.2f}", rejoins))
    return [
        ReportSection("E2", f"tree depth after {n} joins",
                      ("variant", "mean depth", "per-seed"), join_rows,
                      note="Paper (31 nodes): 6 in all setups, optimal 5."),
        ReportSection("E3", "tree depth after subtree failure + rejoin",
                      ("variant", "mean depth", "per-seed"), rejoin_rows,
                      note="Paper: Baseline 10, Choice-Random 10, Choice-CrystalBall 9."),
    ]


def gossip_section(n: int, seeds: Sequence[int], rumor_count: int) -> ReportSection:
    from .gossip_experiment import GOSSIP_VARIANTS, run_gossip_experiment

    rows = []
    for variant in GOSSIP_VARIANTS:
        latencies = [
            run_gossip_experiment(variant, n=n, seed=seed, rumor_count=rumor_count)
            .mean_latency
            for seed in seeds
        ]
        rows.append((variant, f"{statistics.mean(latencies) * 1000:.0f} ms"))
    return ReportSection(
        "E4", "streaming gossip mean delivery latency",
        ("variant", "mean latency"), rows,
        note="Shape: restricted (BAR) pays a penalty vs free/model-resolved choice.",
    )


def paxos_section(seeds: Sequence[int], requests: int) -> ReportSection:
    from .paxos_experiment import PAXOS_VARIANTS, run_paxos_experiment

    rows = []
    for variant in PAXOS_VARIANTS:
        means = [
            run_paxos_experiment(variant, seed=seed, requests_per_node=requests)
            .mean_latency
            for seed in seeds
        ]
        rows.append((variant, f"{statistics.mean(means) * 1000:.0f} ms"))
    return ReportSection(
        "E6", "Paxos commit latency by proposer policy",
        ("variant", "mean latency"), rows,
        note="Shape: fixed ≫ mencius ≥ choice.",
    )


def swarm_section(seeds: Sequence[int], n: int, blocks: int) -> ReportSection:
    from .dissemination_experiment import run_swarm_experiment

    rows = []
    for setting in ("scarce", "abundant"):
        for variant in ("baseline-random", "baseline-rarest", "choice-adaptive"):
            means = [
                run_swarm_experiment(variant, setting=setting, seed=seed,
                                     n=n, block_count=blocks).mean_completion
                for seed in seeds
            ]
            rows.append((setting, variant, f"{statistics.mean(means):.1f} s"))
    return ReportSection(
        "E5", "swarm mean completion by next-block policy",
        ("setting", "variant", "mean completion"), rows,
        note="Shape: rarest wins when scarce; random ties when abundant; adaptive tracks.",
    )


def generate_report(scope: str = "quick") -> str:
    """Build the full Markdown report for the given scope."""
    if scope == "quick":
        tree_kwargs = dict(n=15, seeds=(1, 2))
        gossip_kwargs = dict(n=12, seeds=(1,), rumor_count=6)
        paxos_kwargs = dict(seeds=(1,), requests=5)
        swarm_kwargs = dict(seeds=(1,), n=9, blocks=24)
    elif scope == "full":
        tree_kwargs = dict(n=31, seeds=(1, 2, 3, 4, 5))
        gossip_kwargs = dict(n=32, seeds=(1, 2, 3, 4), rumor_count=10)
        paxos_kwargs = dict(seeds=(1, 2), requests=10)
        swarm_kwargs = dict(seeds=(1, 2, 3), n=17, blocks=96)
    else:
        raise ValueError(f"scope must be 'quick' or 'full', got {scope!r}")

    sections = [e1_section()]
    sections.extend(tree_sections(**tree_kwargs))
    sections.append(gossip_section(**gossip_kwargs))
    sections.append(swarm_section(**swarm_kwargs))
    sections.append(paxos_section(**paxos_kwargs))

    header = (
        "# Reproduction results\n\n"
        f"Scope: **{scope}**.  Generated by `repro.eval.report`; every\n"
        "number reproduces exactly for a given scope (fixed seeds,\n"
        "deterministic simulation).  Paper-vs-measured commentary lives\n"
        "in EXPERIMENTS.md.\n\n"
    )
    return header + "\n".join(section.to_markdown() for section in sections)


__all__ = ["ReportSection", "generate_report"]
