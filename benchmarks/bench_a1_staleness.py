"""A1 — ablation: model freshness under a flash-crowd rejoin.

Section 3.3.2 asks "how to keep the model up to date?" and proposes two
mechanisms this repo implements:

* fresher checkpoints (a shorter checkpoint period), and
* *service-contributed model state* ("the distributed service itself
  can contribute to efficiently maintaining the model by exporting
  state whose goal is to keep track of information in other nodes") —
  here the exposed RandTree exports its recent-forward counts so that
  in-flight joins, which no checkpoint can show, still influence
  choice resolution.

The stress case is a flash-crowd rejoin (victims restart 0.02 s apart,
15× denser than the default scenario).  Finding recorded in
EXPERIMENTS.md: fresher checkpoints alone do NOT fix the resulting
herding (the missing information is in-flight work, not stale state);
the service-contributed term does.
"""

import statistics

from repro.eval import run_tree_experiment

from conftest import print_table

SEEDS = (1, 2, 3)
FLASH = dict(rejoin_spacing=0.02, rejoin_settle=15.0)


def run_all():
    results = {}
    results["choice-random"] = [
        run_tree_experiment("choice-random", seed=s, **FLASH).depth_after_rejoin
        for s in SEEDS
    ]
    for label, period in (("cb periodic 0.5s", 0.5), ("cb periodic 0.1s", 0.1)):
        results[label] = [
            run_tree_experiment(
                "choice-crystalball", seed=s, **FLASH, checkpoint_period=period,
            ).depth_after_rejoin
            for s in SEEDS
        ]
    return results


def test_a1_flash_crowd_staleness(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        (label, f"{statistics.mean(depths):.2f}", str(depths))
        for label, depths in results.items()
    ]
    print_table(
        "A1: rejoin depth under a flash crowd (0.02 s spacing)",
        ("setup", "mean depth", "per-seed"),
        rows,
    )
    crystal = statistics.mean(results["cb periodic 0.5s"])
    random_mean = statistics.mean(results["choice-random"])
    # With service-contributed in-flight state, predictive resolution
    # holds its advantage even under the burst.
    assert crystal <= random_mean
