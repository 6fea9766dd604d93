"""Command-line interface for running the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli e1
    python -m repro.cli e2 --variant choice-crystalball --seed 2
    python -m repro.cli e3 --seeds 1 2 3
    python -m repro.cli e4 --variant choice-model
    python -m repro.cli e5 --setting abundant --variant baseline-rarest
    python -m repro.cli e6 --variant mencius
    python -m repro.cli trace e6 --explain
    python -m repro.cli trace a7 --explain --format markdown \\
        --json TRACE_EXPLAIN.json --markdown TRACE_EXPLAIN.md
    python -m repro.cli bench p1 --quick
    python -m repro.cli bench s1 --quick
    python -m repro.cli report e2 --variant choice-crystalball --seed 1 \\
        --json RUN_REPORT.json --markdown RUN_REPORT.md
    python -m repro.cli fuzz paxos --seed 1 --budget 2000 --steering off \\
        --out examples/corpus
    python -m repro.cli fuzz --replay examples/corpus
    python -m repro.cli t1 --quick --stream RUN_STREAM.jsonl
    python -m repro.cli tail RUN_STREAM.jsonl --follow
    python -m repro.cli top RUN_STREAM.jsonl

Each experiment id matches DESIGN.md's index and the corresponding
``benchmarks/bench_e*.py``; the CLI is the quick interactive way to
poke at one configuration.  ``bench <id>`` runs a full benchmark suite
under pytest and prints where its machine-readable ``BENCH_<ID>.json``
landed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import List, Optional

EXPERIMENTS = {
    "e1": "development-effort metrics (LoC, if-else per handler)",
    "e2": "RandTree join-phase depth (31 nodes)",
    "e3": "RandTree subtree failure + rejoin depth",
    "e4": "gossip peer choice on heterogeneous links",
    "e5": "content-distribution next-block strategy crossover",
    "e6": "Paxos proposer choice over a loaded WAN",
    "e7": "consequence-prediction depth/cost sweep",
    "a7": "safety under chaos (RandTree invariants, Paxos agreement)",
}


def _cmd_list(_args) -> int:
    for exp_id, description in EXPERIMENTS.items():
        print(f"{exp_id}  {description}")
    return 0


def _cmd_e1(_args) -> int:
    from .metrics import compare_randtree

    print(compare_randtree().format_table())
    return 0


#: Experiments that are one runner call per (variant, seed): id -> (the
#: runner in :mod:`repro.eval`, its variants, the variant ``report`` runs
#: unless told otherwise).  Names, so ``repro.eval`` loads on first use.
RUNS = {
    "e2": ("run_tree_experiment", "VARIANTS", "choice-crystalball"),
    "e3": ("run_tree_experiment", "VARIANTS", "choice-crystalball"),
    "e4": ("run_gossip_experiment", "GOSSIP_VARIANTS", "choice-model"),
    "e5": ("run_swarm_experiment", "SWARM_VARIANTS", "choice-adaptive"),
    "e6": ("run_paxos_experiment", "PAXOS_VARIANTS", "choice"),
    "a7": ("run_chaos_tree_experiment", "CHAOS_TREE_VARIANTS", "baseline"),
}
# e2 and e3 print one line per variant: the tree depth after this phase.
TREE_PHASES = {"e2": "join", "e3": "rejoin"}


def _run_entry(exp_id: str):
    """``(runner, variants, report default)`` of one :data:`RUNS` entry."""
    from . import eval as experiments

    runner, variants, default = RUNS[exp_id]
    return getattr(experiments, runner), getattr(experiments, variants), default


def _cmd_run(args) -> int:
    runner, variants, _default = _run_entry(args.command)
    extra = {"setting": args.setting} if args.command == "e5" else {}
    phase = TREE_PHASES.get(args.command)
    for variant in [args.variant] if args.variant else list(variants):
        results = [runner(variant, seed=seed, **extra) for seed in args.seeds]
        if phase is None:
            for result in results:
                print(result.summary())
            continue
        depths = [getattr(result, f"depth_after_{phase}") for result in results]
        print(f"{variant:>20}: depth after {phase} = "
              f"{statistics.mean(depths):.2f}  per-seed {depths}")
    return 0


def _cmd_e7(args) -> int:
    import time

    from .apps.randtree import RandTreeConfig, make_exposed_factory, randtree_properties
    from .choice.resolvers import RandomResolver
    from .mc import ConsequencePredictor, Explorer, cluster_view
    from .statemachine import Cluster

    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(31, factory, seed=args.seed,
                      resolver_factory=lambda nid: RandomResolver(args.seed))
    cluster.start_all()
    cluster.run(until=20.0)
    world = cluster_view(cluster)
    explorer = Explorer(factory, properties=randtree_properties(config))
    for depth in range(1, args.max_depth + 1):
        predictor = ConsequencePredictor(explorer, chain_depth=depth, budget=50_000)
        start = time.perf_counter()
        report = predictor.predict(world)
        elapsed = time.perf_counter() - start
        print(f"chain depth {depth}: {report.total_states:5d} states  {elapsed:.3f}s")
    return 0


def _cmd_bench(args) -> int:
    import os
    import subprocess
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    bench_id = args.id.lower()
    modules = sorted(repo_root.glob(f"benchmarks/bench_{bench_id}*.py"))
    if not modules:
        print(f"no benchmark module matches benchmarks/bench_{bench_id}*.py",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if args.quick:
        env["REPRO_BENCH_QUICK"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-s",
               *(str(m) for m in modules)]
    status = subprocess.run(command, cwd=repo_root, env=env).returncode
    json_path = repo_root / f"BENCH_{bench_id.upper()}.json"
    if json_path.exists():
        print(f"results: {json_path}")
    return status


def _near_violation_totals(metrics) -> dict:
    """Aggregate per-node predicted near-violation counts for a report."""
    totals: dict = {}
    for section in metrics.get("nodes", {}).values():
        prediction = section.get("prediction") or {}
        for prop, count in (prediction.get("near_violations") or {}).items():
            totals[prop] = totals.get(prop, 0) + count
    return totals


def _cmd_report(args) -> int:
    from .obs import RunReport

    runner, _variants, default = _run_entry(args.experiment)
    variant = args.variant or default
    result = runner(variant, seed=args.seed)
    context = {
        "experiment": args.experiment,
        "variant": variant,
        "seed": args.seed,
        "summary": result.summary(),
    }
    near = _near_violation_totals(result.metrics)
    if near:
        context["near_violations"] = near
        print(f"near-violations predicted: {near}")
    report = RunReport(
        title=f"{args.experiment}/{variant}",
        metrics=result.metrics,
        context=context,
    )
    report.write(json_path=args.json, markdown_path=args.markdown)
    if args.json:
        print(f"wrote {args.json}")
    if args.markdown:
        print(f"wrote {args.markdown}")
    if not args.json and not args.markdown:
        print(report.to_markdown(), end="")
    return 0


def _cmd_a7(args) -> int:
    from .eval import run_chaos_paxos_experiment, standard_plans

    run_chaos_tree_experiment, variants, _default = _run_entry("a7")
    variants = [args.variant] if args.variant else list(variants)
    plans = standard_plans(args.nodes, args.horizon)
    if args.plan:
        known = {p.name: p for p in plans}
        if args.plan not in known:
            print(f"unknown plan {args.plan!r}; expected one of: "
                  f"{', '.join(known)}", file=sys.stderr)
            return 2
        plans = [known[args.plan]]
    for variant in variants:
        for plan in plans:
            for seed in args.seeds:
                result = run_chaos_tree_experiment(
                    variant, seed=seed, n=args.nodes, plan=plan)
                print(result.summary())
    if args.paxos:
        for plan in standard_plans(5, 20.0, amnesia=False):
            for seed in args.seeds:
                print(run_chaos_paxos_experiment(seed=seed, plan=plan).summary())
    return 0


def _cmd_fuzz(args) -> int:
    import json as _json
    import os

    from .fuzz import (
        FuzzCampaign,
        corpus_paths,
        counterexample_dict,
        forensics_for,
        load_counterexample,
        make_target,
        replay_counterexample,
        shrink_counterexample,
        write_counterexample,
    )

    if args.replay:
        paths = corpus_paths(args.replay) if os.path.isdir(args.replay) \
            else [args.replay]
        if not paths:
            print(f"no artifacts under {args.replay}", file=sys.stderr)
            return 2
        failures = 0
        for path in paths:
            artifact = load_counterexample(path)
            _execution, reproduces = replay_counterexample(artifact)
            status = "REPRODUCES" if reproduces else "DOES NOT REPRODUCE"
            print(f"{path}: {status}  ({artifact['target']} "
                  f"seed={artifact['seed']}, {artifact['shrunk_events']} events)")
            failures += 0 if reproduces else 1
        return 1 if failures else 0

    if not args.app:
        print("fuzz: an app is required unless --replay is given",
              file=sys.stderr)
        return 2
    target = make_target(args.app)
    campaign = FuzzCampaign(
        target, seed=args.seed, budget=args.budget, mode=args.mode,
        steering=args.steering == "on", stop_after=args.stop_after,
        stream=args.stream, progress_every=args.progress_every,
    )
    result = campaign.run()
    print(_json.dumps(result.summary(), sort_keys=True))
    for ce in result.counterexamples:
        print(f"violation: {ce.summary()}")
    if not result.counterexamples:
        print("no safety violations found within the budget")
        return 0

    ce = result.counterexamples[0]
    if args.shrink:
        shrink = shrink_counterexample(target, ce.plan, ce.seed)
        print(f"shrink: {shrink.summary()}")
        print("minimal plan:")
        for line in shrink.shrunk.to_text().splitlines():
            print(f"  {line}")
        plan, violations, horizon = shrink.shrunk, shrink.violations, shrink.horizon
    else:
        plan, violations, horizon = ce.plan, ce.violations, None
    explanation = None
    if args.forensics:
        explanation = forensics_for(target, plan, ce.seed)
        if explanation is not None:
            print()
            print(explanation.to_ascii(), end="")
    if args.out:
        final = target.execute(plan, ce.seed, probes=False)
        artifact = counterexample_dict(
            target, plan, ce.seed, violations,
            campaign_seed=args.seed, execution=ce.execution,
            original_events=len(ce.plan), horizon=horizon,
            trace_digest=final.trace_digest, explanation=explanation,
        )
        path = write_counterexample(
            os.path.join(args.out, f"{target.name}-seed{args.seed}.json"),
            artifact,
        )
        print(f"wrote {path}")
    return 0


def _format_record(record: dict) -> str:
    """One human-readable line per stream record."""
    rtype = record.get("type")
    t = record.get("t", 0.0)
    if rtype == "header":
        config = " ".join(f"{k}={v}" for k, v in
                          sorted((record.get("config") or {}).items()))
        return (f"# {record.get('kind')} run {record.get('run')} "
                f"(stream v{record.get('version')})  {config}".rstrip())
    if rtype == "sample":
        values = " ".join(f"{k}={_short_num(v)}" for k, v in
                          sorted((record.get("v") or {}).items()))
        return f"[{t:10.2f}s] {values}"
    if rtype == "event":
        data = " ".join(f"{k}={v}" for k, v in
                        sorted((record.get("data") or {}).items()))
        return f"[{t:10.2f}s] event {record.get('event')}  {data}".rstrip()
    data = " ".join(f"{k}={v}" for k, v in
                    sorted((record.get("data") or {}).items()))
    return f"== summary [{t:.2f}s] {data}".rstrip()


def _short_num(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _cmd_tail(args) -> int:
    import json as _json
    import os

    from .obs.stream import follow_stream, read_stream

    if not args.follow and not os.path.exists(args.path):
        print(f"no stream at {args.path}", file=sys.stderr)
        return 2
    if args.follow:
        records = follow_stream(args.path, timeout=args.timeout)
    else:
        records = iter(read_stream(args.path))
    count = 0
    for record in records:
        if args.json:
            print(_json.dumps(record, sort_keys=True), flush=True)
        else:
            print(_format_record(record), flush=True)
        count += 1
    if count == 0:
        print("stream is empty", file=sys.stderr)
        return 1
    return 0


SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(points, width: int = 40) -> str:
    """Fixed-width unicode sparkline over (t, value) points."""
    values = [v for _, v in points]
    if len(values) > width:
        # Downsample evenly to the display width.
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(values)
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                        int((v - lo) / span * len(SPARK_CHARS)))]
        for v in values
    )


def _cmd_top(args) -> int:
    import os

    from .obs.stream import read_stream, stream_series

    if not os.path.exists(args.path):
        print(f"no stream at {args.path}", file=sys.stderr)
        return 2
    records = read_stream(args.path)
    if not records:
        print("stream is empty", file=sys.stderr)
        return 1
    header = records[0] if records[0].get("type") == "header" else {}
    series = stream_series(records)
    events = [r for r in records if r.get("type") == "event"]
    summary = next((r for r in records if r.get("type") == "summary"), None)
    samples = sum(1 for r in records if r.get("type") == "sample")
    status = "finished" if summary is not None else "RUNNING"
    last_t = records[-1].get("t", 0.0)

    print(f"run {header.get('run', '?')}  kind={header.get('kind', '?')}  "
          f"{status}  t={last_t:.2f}s  samples={samples}  events={len(events)}")
    config = header.get("config") or {}
    if config:
        print("  " + " ".join(f"{k}={v}" for k, v in sorted(config.items())))
    print()
    width = max((len(name) for name in series), default=0)
    for name in sorted(series):
        points = series[name]
        last = points[-1][1]
        print(f"{name:<{width}}  {_sparkline(points)}  {_short_num(last)}")
    if events:
        print()
        print("recent events:")
        for record in events[-args.events:]:
            print(f"  {_format_record(record)}")
    if summary is not None:
        print()
        print(_format_record(summary))
    return 0


def _cmd_t1(args) -> int:
    from .eval import run_throughput_experiment

    total = 4_000 if args.quick else args.requests
    horizon = 15.0 if args.quick else args.horizon
    mode = {"on": "static"}.get(args.steering, args.steering)
    result = run_throughput_experiment(
        steering=mode,
        seed=args.seed,
        total_requests=total,
        horizon=horizon,
        stream=args.stream,
        telemetry_cadence=args.cadence,
    )
    print(result.summary())
    print(f"digest: {result.state_digest}")
    steering = result.metrics.get("steering")
    if steering:
        counters = steering["counters"]
        print(
            f"steering: {counters.get('scored_rounds', 0)} scored rounds / "
            f"{steering['resolutions']} resolutions, policy hit rate "
            f"{steering['policy'].get('hit_rate', 0.0):.0%}"
        )
    if args.stream:
        print(f"stream: {args.stream}")
    return 0 if result.safe else 1


def _render_explanation(explanation, fmt: str) -> str:
    if fmt == "json":
        return explanation.to_json() + "\n"
    if fmt == "markdown":
        return explanation.to_markdown()
    return explanation.to_ascii()


def _cmd_trace(args) -> int:
    from .eval import run_trace_session

    session = run_trace_session(
        args.experiment, seed=args.seed, keep_cluster=bool(args.jsonl),
    )
    print(session.summary())
    if session.prediction:
        import json as _json
        print(f"prediction: {_json.dumps(session.prediction, sort_keys=True)}")
    explanations = session.steering + session.violations
    if args.explain:
        if not explanations:
            print("nothing to explain: no steering decisions and no "
                  "predicted violations")
        for explanation in explanations:
            print()
            print(_render_explanation(explanation, args.format), end="")
    best = session.best_explanation()
    if args.json and best is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(best.to_json() + "\n")
        print(f"wrote {args.json}")
    if args.markdown and explanations:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(f"# Causal forensics: {args.experiment} "
                     f"(seed {args.seed})\n\n{session.summary()}\n\n")
            for explanation in explanations:
                fh.write(explanation.to_markdown() + "\n")
        print(f"wrote {args.markdown}")
    if args.jsonl and session.cluster is not None:
        written = session.cluster.sim.trace.dump_jsonl(args.jsonl)
        print(f"wrote {args.jsonl} ({written} records)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run experiments from 'Simplifying Distributed System Development'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")
    sub.add_parser("e1", help=EXPERIMENTS["e1"])

    def add_common(p, variants_help="restrict to one variant"):
        p.add_argument("--variant", default=None, help=variants_help)
        p.add_argument("--seeds", type=int, nargs="+", default=[1],
                       help="seeds to run (default: 1)")

    for exp_id in ("e2", "e3", "e4", "e5", "e6"):
        p = sub.add_parser(exp_id, help=EXPERIMENTS[exp_id])
        add_common(p)
        if exp_id == "e5":
            p.add_argument("--setting", choices=("scarce", "abundant"), default="scarce")
    p = sub.add_parser("e7", help=EXPERIMENTS["e7"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-depth", type=int, default=6)
    p = sub.add_parser(
        "bench",
        help="run one benchmark suite and report its BENCH_<ID>.json path",
    )
    p.add_argument("id", help="bench id, e.g. e7, p1, or s1 (matches "
                              "benchmarks/bench_<id>*.py)")
    p.add_argument("--quick", action="store_true",
                   help="reduced iterations (sets REPRO_BENCH_QUICK=1)")
    p = sub.add_parser(
        "report",
        help="run one experiment and emit its per-node metrics report",
    )
    p.add_argument("experiment", choices=tuple(RUNS),
                   help="experiment id to run and report on")
    p.add_argument("--variant", default=None,
                   help="variant (default: the CrystalBall-enabled one)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the JSON report here")
    p.add_argument("--markdown", default=None, metavar="PATH",
                   help="write the Markdown report here")
    p = sub.add_parser(
        "trace",
        help="run a causal-forensics session and explain steering decisions",
    )
    p.add_argument("experiment", choices=("e6", "a7"),
                   help="e6: clean steering forensics; a7: under message chaos")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--explain", action="store_true",
                   help="print the causal explanation of every steering "
                        "decision and predicted violation")
    p.add_argument("--format", choices=("ascii", "markdown", "json"),
                   default="ascii", help="rendering for --explain")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the leading explanation as JSON here")
    p.add_argument("--markdown", default=None, metavar="PATH",
                   help="write all explanations as Markdown here")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="dump the full causally-stamped trace as JSONL here")
    p = sub.add_parser(
        "fuzz",
        help="coverage-guided adversarial scenario search over fault plans",
    )
    p.add_argument("app", nargs="?", choices=("paxos", "randtree"),
                   help="fuzz target (omit with --replay)")
    p.add_argument("--budget", type=int, default=2000,
                   help="execution budget (default: 2000)")
    p.add_argument("--seed", type=int, default=1,
                   help="campaign seed; same seed, same campaign")
    p.add_argument("--steering", choices=("on", "off"), default="off",
                   help="run executions with CrystalBall steering installed")
    p.add_argument("--mode", choices=("guided", "random"), default="guided",
                   help="guided: coverage + near-violation search; "
                        "random: the plain random baseline")
    p.add_argument("--stop-after", type=int, default=None, metavar="K",
                   help="stop once K counterexamples are found")
    p.add_argument("--no-shrink", dest="shrink", action="store_false",
                   help="skip delta-debug shrinking of the first counterexample")
    p.add_argument("--no-forensics", dest="forensics", action="store_false",
                   help="skip the causal-forensics re-run")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write the counterexample artifact JSON here")
    p.add_argument("--replay", default=None, metavar="PATH",
                   help="replay one artifact file (or every artifact in a "
                        "directory) instead of fuzzing")
    p.add_argument("--stream", default=None, metavar="PATH",
                   help="write live fuzz.progress events to this RunStream "
                        "JSONL file (tail it with `cli tail PATH --follow`)")
    p.add_argument("--progress-every", type=int, default=25, metavar="N",
                   help="emit a fuzz.progress event every N executions "
                        "(default: 25)")
    p = sub.add_parser(
        "t1",
        help="batched Multi-Paxos throughput run (streamable via --stream)",
    )
    p.add_argument("--steering", choices=("on", "off", "static", "amortized"),
                   default="on",
                   help="choice steering: off, static (deployment-model "
                        "resolver; 'on' is an alias), or amortized "
                        "(prediction-driven via distilled policies)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--requests", type=int, default=100_000,
                   help="total offered requests (default: 100000)")
    p.add_argument("--horizon", type=float, default=60.0,
                   help="simulated horizon in seconds (default: 60)")
    p.add_argument("--quick", action="store_true",
                   help="the bench quick workload: 4000 requests, 15 s")
    p.add_argument("--stream", default=None, metavar="PATH",
                   help="write a live RunStream JSONL here while running")
    p.add_argument("--cadence", type=float, default=1.0,
                   help="telemetry sampling cadence in sim seconds")
    p = sub.add_parser(
        "tail",
        help="print a RunStream JSONL file, optionally following it live",
    )
    p.add_argument("path", help="stream file written via an experiment's "
                                "stream= option (or cli t1/fuzz --stream)")
    p.add_argument("--follow", action="store_true",
                   help="keep reading as the writer appends (stops at the "
                        "summary record or --timeout)")
    p.add_argument("--json", action="store_true",
                   help="print raw JSON records instead of formatted lines")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="with --follow: give up after this many host seconds")
    p = sub.add_parser(
        "top",
        help="single-screen view of a run stream: sparklines per series",
    )
    p.add_argument("path", help="stream file to summarize")
    p.add_argument("--events", type=int, default=5,
                   help="how many recent events to show (default: 5)")
    p = sub.add_parser("a7", help=EXPERIMENTS["a7"])
    add_common(p)
    p.add_argument("--nodes", type=int, default=15)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--plan", default=None,
                   help="restrict to one standard plan by name")
    p.add_argument("--paxos", action="store_true",
                   help="also run the Paxos agreement sweep")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "e1": _cmd_e1,
        **dict.fromkeys(("e2", "e3", "e4", "e5", "e6"), _cmd_run),
        "e7": _cmd_e7,
        "a7": _cmd_a7,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
        "report": _cmd_report,
        "fuzz": _cmd_fuzz,
        "t1": _cmd_t1,
        "tail": _cmd_tail,
        "top": _cmd_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
