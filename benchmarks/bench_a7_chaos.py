"""A7 — safety under chaos.

Not a paper figure: the chaos engine sweeps randomized fault plans
(drop / duplicate / reorder / corrupt, flapping links, partitions,
crash-recovery with amnesia) against the two protocols the paper
studies and asserts what must never break:

* RandTree stays structurally sane — no self-loops, bounded degree,
  no cycle among mutually-agreed parent/child edges — in every
  configuration, for Baseline and Choice-CrystalBall alike;
* Paxos chooses at most one value per instance across all replicas
  and applies each command at most once (``repro.apps.paxos.SAFETY``);
* the same ``(configuration, seed)`` yields byte-identical trace
  digests (chaos runs are replayable);
* the at-least-once reliability layer recovers the loss-free E2 join
  outcome under 10% adversarial message loss.

Degradation (depth, membership, commits) is recorded alongside — that
is the liveness price of the faults, reported but not asserted.
"""

import pytest

from repro.eval import (
    run_chaos_paxos_experiment,
    run_chaos_tree_experiment,
    run_reliable_join_comparison,
    standard_plans,
)

from conftest import print_table

SEEDS = (1, 2, 3)
N_TREE = 15
TREE_HORIZON = 10.0
PAXOS_HORIZON = 20.0
TREE_VARIANTS = ("baseline", "choice-crystalball")

TREE_PLANS = {p.name: p for p in standard_plans(N_TREE, TREE_HORIZON)}
PAXOS_PLANS = {
    p.name: p for p in standard_plans(5, PAXOS_HORIZON, amnesia=False)
}


@pytest.mark.parametrize("plan_name", sorted(TREE_PLANS))
@pytest.mark.parametrize("variant", TREE_VARIANTS)
def test_a7_randtree_safety_under_chaos(benchmark, variant, plan_name):
    """Structural invariants hold for every seed of every plan."""
    plan = TREE_PLANS[plan_name]

    def sweep():
        return [
            run_chaos_tree_experiment(variant, seed=seed, n=N_TREE, plan=plan)
            for seed in SEEDS
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"A7: RandTree under {plan_name} ({variant})",
        ("seed", "depth", "joined", "probes", "faults", "violations"),
        [
            (
                r.seed, r.final_depth, f"{r.joined}/{r.n}", r.probes,
                sum(r.chaos_stats.values()), len(r.violations),
            )
            for r in results
        ],
    )
    for r in results:
        assert r.safe, f"seed {r.seed}: {r.violations[:3]}"
        assert r.probes > 0
        # Liveness under a healed plan: the root keeps a working tree.
        assert r.joined >= r.n - 2


@pytest.mark.parametrize("plan_name", sorted(PAXOS_PLANS))
def test_a7_paxos_single_decree_under_chaos(benchmark, plan_name):
    """Agreement and at-most-once hold for every seed of every plan."""
    plan = PAXOS_PLANS[plan_name]

    def sweep():
        return [
            run_chaos_paxos_experiment(seed=seed, plan=plan)
            for seed in SEEDS
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"A7: Paxos under {plan_name}",
        ("seed", "committed", "faults", "agreement", "at-most-once"),
        [
            (
                r.seed, f"{r.committed}/{r.expected}",
                sum(r.chaos_stats.values()), r.agreement, r.at_most_once,
            )
            for r in results
        ],
    )
    for r in results:
        assert r.safe, f"seed {r.seed}: {r.summary()}"
        assert r.committed > 0


def test_a7_trace_digest_determinism(benchmark):
    """Identical (configuration, seed) → byte-identical trace digests."""
    plan = TREE_PLANS["message-chaos"]

    def run_twice():
        first = run_chaos_tree_experiment(
            "baseline", seed=SEEDS[0], n=N_TREE, plan=plan,
        )
        second = run_chaos_tree_experiment(
            "baseline", seed=SEEDS[0], n=N_TREE, plan=plan,
        )
        return first, second

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    print_table(
        "A7: replay determinism",
        ("run", "digest"),
        [("first", first.trace_digest[:32]), ("second", second.trace_digest[:32])],
    )
    assert first.trace_digest == second.trace_digest


def test_a7_reliability_masks_loss(benchmark):
    """At-least-once delivery recovers the loss-free join outcome."""

    def sweep():
        return [
            run_reliable_join_comparison(seed=seed, n=N_TREE, loss=0.10)
            for seed in SEEDS
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "A7: E2 join at 10% loss with reliability layer",
        ("seed", "loss-free depth", "reliable depth", "retransmissions", "recovered"),
        [
            (
                r.seed, r.depth_loss_free, r.depth_reliable,
                r.reliable_stats.get("retransmissions", 0), r.recovered,
            )
            for r in results
        ],
    )
    for r in results:
        assert r.joined_reliable == r.n
        assert r.recovered, (
            f"seed {r.seed}: depth {r.depth_reliable} != {r.depth_loss_free}"
        )
