#!/usr/bin/env python3
"""Two-clock benchmark: five workloads, end-to-end metrics, layer table.

    python3 perf/bench.py [--workload NAME ...] [--seed 1] [--reps N]
                          [--traced] [--out perf/out]
    python3 perf/bench.py compare A.json B.json

One workload runs in this process; several run one after another, each
in a fresh child process, so peak memory is per workload.  Everything is
single-threaded.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero when a correctness check fails.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

from compare import HOST_METRICS, quartiles

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPS = 3
# Checked-in numbers of the same runs at seed 1, printed beside the
# measured ones.  Reported, not pinned: a change of behaviour moves them
# without touching this file.
ANCHORS = {
    "paxos_static": ("sim_ops_per_s", 1336.0, "BENCH_T1"),
    "paxos_amortized": ("sim_ops_per_s", 1506.7, "BENCH_T2"),
    "mc_bfs": ("mc.states_explored", 8624, "ISSUE 12"),
}
ANCHOR_SEED = 1
NOISY_CALIB = 0.10


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def host_calib_s() -> float:
    """A fixed pure-Python loop, timed: context for the host's speed at
    the moment of the run.  Never used to rescale anything."""
    start = perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - start


def fresh_import_s(modules) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter()\n"
        "import " + ", ".join(modules) + "\n"
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                          capture_output=True, text=True)
    return float(done.stdout.strip())


def provenance(seed: int, reps: int, calib_before: float,
               calib_after: float) -> Dict[str, Any]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "reps": reps,
        "host_calib_s": [calib_before, calib_after],
        "noisy": abs(calib_after - calib_before) / calib_before > NOISY_CALIB,
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def check_repeats(outcomes) -> Dict[str, bool]:
    first = outcomes[0]
    checks = {f"rep{i}.{name}": ok
              for i, outcome in enumerate(outcomes) for name, ok in outcome.checks.items()}
    checks["same_digest_every_rep"] = all(o.digest == first.digest for o in outcomes)
    checks["same_sim_metrics_every_rep"] = all(o.sim == first.sim for o in outcomes)
    return checks


def eval_rates(outcome) -> Dict[str, float]:
    """Work per wall-second of one repetition: printed, never gated."""
    work, wall_s = outcome.work, outcome.window.wall_s
    rates = {f"eval.{key}_per_wall_s": work.get(key, 0) / wall_s
             for key in ("commits", "deliveries", "events", "states", "sim_s")}
    for key in ("join_phase_wall_s", "steady_phase_wall_s"):
        rates[f"eval.{key}"] = work.get(key, 0.0)
    return rates


def run_untraced(name: str, seed: int, reps: int) -> Dict[str, Any]:
    import workloads

    runner, modules = workloads.RUNNERS[name], workloads.MODULES[name]
    calib_before = host_calib_s()
    # Import here what the fresh interpreters are timed importing, so
    # that a repetition's own set-up is construction only.
    for module in modules:
        importlib.import_module(module)
    outcomes, imports = [], []
    for _ in range(reps):
        imports.append(fresh_import_s(modules))
        gc.collect()
        outcomes.append(runner(seed, workloads.Window()))
    calib_after = host_calib_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Interference on a shared host only ever adds time, so the host-clock
    # values are those of the best repetition; every repetition is kept.
    walls = [o.window.wall_s for o in outcomes]
    builds = [o.window.setup_s for o in outcomes]
    raw = {"wall_s": walls, "import_s": imports, "build_s": builds,
           "setup_s": [i + b for i, b in zip(imports, builds)]}
    best = outcomes[walls.index(min(walls))]
    checks = check_repeats(outcomes)
    end_to_end = dict(best.sim)
    end_to_end.update({
        "wall_s": min(walls),
        "setup_s": min(imports) + min(builds),
        "peak_rss_mb": peak_rss_mb,
    })
    return {
        "workload": name,
        "traced": False,
        "correct": all(checks.values()),
        "failed_checks": sorted(k for k, ok in checks.items() if not ok),
        "digest": best.digest,
        "attempted": sum(o.attempted for o in outcomes),
        "end_to_end": end_to_end,
        "raw": raw,
        "spread": {key: quartiles(values) for key, values in raw.items()},
        "eval": eval_rates(best),
        "counts": best.counts,
        "provenance": provenance(seed, reps, calib_before, calib_after),
    }


def run_traced(name: str, seed: int, out: str) -> Dict[str, Any]:
    import workloads
    from tracer import Tracer, import_all_repro

    runner = workloads.RUNNERS[name]
    import_all_repro()
    calib_before = host_calib_s()
    plain = runner(seed, workloads.Window())
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner(seed, workloads.Window(on_open=tracer.reset,
                                               on_close=tracer.uninstall))
    finally:
        tracer.uninstall()
    calib_after = host_calib_s()
    plain_wall_s, traced_wall_s = plain.window.wall_s, traced.window.wall_s

    checks = {f"traced.{key}": ok for key, ok in traced.checks.items()}
    checks["tracing_left_digest_unchanged"] = traced.digest == plain.digest
    checks["tracing_left_sim_metrics_unchanged"] = traced.sim == plain.sim
    table = tracer.table()
    layers: Dict[str, float] = {}
    for op, row in table.items():
        for column in ("calls", "self_s", "us_per_call"):
            layers[f"{op}.{column}"] = row[column]
    layers["sim.events_dispatched"] = table["sim.event"]["calls"]
    counts = dict(traced.counts)
    if "mc.transitions" not in counts:
        counts["mc.transitions"] = tracer.transitions
        explored = counts.get("mc.states_explored", 0)
        counts["mc.dedup_ratio"] = explored / tracer.transitions if tracer.transitions else 0.0
    layers.update(counts)
    layers.update(traced.sim)
    layers.update(eval_rates(plain))
    layers.update({
        "runtime.score.duty_cycle": table["runtime.score"]["total_s"] / traced_wall_s,
        "bench.trace_overhead_ratio": traced_wall_s / plain_wall_s,
        "bench.unattributed_share": max(0.0, 1.0 - tracer.root_seconds / traced_wall_s),
        "bench.spans_cap": tracer.max_spans,
        "bench.spans_dropped": tracer.dropped,
    })
    os.makedirs(out, exist_ok=True)
    tracer.write_spans(os.path.join(out, f"{name}.spans.jsonl"))
    return {
        "workload": name,
        "traced": True,
        "correct": all(checks.values()),
        "failed_checks": sorted(k for k, ok in checks.items() if not ok),
        "digest": traced.digest,
        "attempted": traced.attempted,
        "wall_s": {"untraced": plain_wall_s, "traced": traced_wall_s},
        "layers": layers,
        "table": table,
        "provenance": provenance(seed, 1, calib_before, calib_after),
    }


def result_line(record: Dict[str, Any], manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The contract's last line: every declared metric of this pass."""
    declared = manifest["per_layer" if record["traced"] else "end_to_end"]
    values = record["layers" if record["traced"] else "end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": len(record["failed_checks"]),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }


def print_record(record: Dict[str, Any], manifest: Dict[str, Any]) -> None:
    name, prov = record["workload"], record["provenance"]
    print(f"== {name}  seed={prov['seed']} reps={prov['reps']} "
          f"commit={prov['commit'][:12]} python={prov['python']} "
          f"nproc={prov['nproc']}{'  NOISY HOST' if prov['noisy'] else ''}")
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    if record["traced"]:
        walls = record["wall_s"]
        print(f"   wall_s untraced {walls['untraced']:.4f}  traced {walls['traced']:.4f}")
        print(f"   {'op':<36}{'calls':>10}{'self_s':>10}{'share':>8}{'us/call':>10}")
        for op, row in sorted(record["table"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"   {op:<36}{row['calls']:>10}{row['self_s']:>10.4f}"
                  f"{row['self_s'] / walls['traced']:>8.1%}{row['us_per_call']:>10.2f}")
        rows = {k: v for k, v in record["layers"].items()
                if not k.endswith((".calls", ".self_s", ".us_per_call"))}
    else:
        rows = {**record["end_to_end"], **record["eval"], **record["counts"]}
        for key, stats in record["spread"].items():
            print(f"   {key:<36} reps {' '.join(f'{v:.4f}' for v in record['raw'][key])}"
                  f"  median {stats['median']:.4f}  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}")
    for key, value in rows.items():
        clock = "host" if key in HOST_METRICS else ""
        print(f"   {key:<36}{value:>16.6g} {units.get(key, ''):<8}{clock}")
    anchor = ANCHORS.get(name)
    if anchor and prov["seed"] == ANCHOR_SEED:
        key, value, source = anchor
        merged = {**record.get("end_to_end", {}), **record.get("counts", {}),
                  **record.get("layers", {})}
        if key in merged:
            print(f"   anchor {key}: measured {merged[key]:.6g}, {source} has {value}")
    print(f"   digest {record['digest']}  correct={record['correct']}"
          + (f"  FAILED: {', '.join(record['failed_checks'])}" if record["failed_checks"] else ""))


def record_path(args, name: str) -> str:
    kind = "layers" if args.traced else "result"
    return os.path.join(args.out, f"{name}.{kind}-seed{args.seed}.json")


def run_one(name: str, args, manifest: Dict[str, Any]) -> int:
    import workloads

    if args.traced:
        record = run_traced(name, args.seed, args.out)
    else:
        record = run_untraced(name, args.seed, args.reps or workloads.REPS[name])
    os.makedirs(args.out, exist_ok=True)
    with open(record_path(args, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print_record(record, manifest)
    print(json.dumps(result_line(record, manifest)))
    return 0 if record["correct"] else 1


def run_many(names: List[str], args, manifest: Dict[str, Any]) -> int:
    """Each workload in its own fresh child, one after another; the
    children's records are merged into one file per pass and one result
    line.  A child that left no record counts as a failed workload."""
    merged: Dict[str, Any] = {}
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--out", args.out]
        if args.reps:
            command += ["--reps", str(args.reps)]
        if args.traced:
            command.append("--traced")
        path = record_path(args, name)
        if os.path.exists(path):
            os.remove(path)  # a child that dies must not leave an older record to merge
        status = subprocess.run(command).returncode or status
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                merged[name] = json.load(handle)
    kind = "layers" if args.traced else "results"
    target = os.path.join(args.out, f"{kind}-seed{args.seed}.json")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
    print(f"wrote {target}", file=sys.stderr)
    lines = {name: result_line(record, manifest) for name, record in merged.items()}
    missing = [name for name in names if name not in merged]
    print(json.dumps({
        "correct": not missing and all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()) or 1,
        "failed": len(missing) + sum(line["failed"] for line in lines.values()),
        "metrics": {name: line["metrics"] for name, line in lines.items()},
    }))
    return status or (1 if missing else 0)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/bench.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    manifest = load_manifest()
    if argv[:1] == ["compare"]:
        from compare import compare_files

        if len(argv) != 3:
            print("usage: bench.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare_files(argv[1], argv[2], manifest)

    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulator seed: which world the workloads build")
    parser.add_argument("--reps", type=int, default=0,
                        help=f"repetitions per workload, at least {MIN_REPS} "
                             "(default: the workload's own constant)")
    parser.add_argument("--traced", action="store_true",
                        help="the per-layer pass: one plain and one traced repetition")
    parser.add_argument("--out", default=os.path.join(PERF, "out"))
    args = parser.parse_args(argv)
    if args.reps and args.reps < MIN_REPS:
        parser.error(f"--reps must be at least {MIN_REPS}")
    names = args.workload or list(workloads.WORKLOADS)
    if len(names) == 1:
        return run_one(names[0], args, manifest)
    return run_many(names, args, manifest)


if __name__ == "__main__":
    sys.exit(main())
