"""Absolute values of small runs of the RandTree worlds that no other
test pins: the A7 chaos tree, a steered fuzz execution and the E2/E3
depths.

The determinism tests elsewhere compare two runs of the same code; these
pin what one run produces, so a change to how a world is built (its
topology, factory, resolver, runtime, join schedule or probe loop) that
alters any event shows up here even when it stays deterministic.  The
churn, gossip, swarm and chaos-Paxos runners are pinned in their own
test modules.
"""

import random

import pytest

from repro.eval import run_chaos_tree_experiment, run_tree_experiment, standard_plans
from repro.fuzz import RandTreeFuzzTarget

# (trace digest, final depth, joined, probes) at n=9, seed 1, message-chaos.
CHAOS_TREE = {
    "baseline": ("7447ceb3a1856ac95c6c40e587b6196f1f00b9608dee41ad1cf55877acb98618", 4, 9, 19),
    "choice-random": ("7f1b9f5bc94212519b8dbb3b9ba61b5db88e45bfc4c47b83cac556c8b945a386",
                      4, 9, 19),
    "choice-crystalball": ("9aa2021a73f52b6e3b17cfbbccf102f4bd0639f670b69030b2e00142a3841a37",
                           4, 9, 19),
}


@pytest.mark.parametrize("variant", sorted(CHAOS_TREE))
def test_chaos_tree_trace(variant):
    plan = standard_plans(9, horizon=6.0)[0]
    result = run_chaos_tree_experiment(variant, seed=1, n=9, plan=plan)
    assert (result.trace_digest, result.final_depth, result.joined,
            result.probes) == CHAOS_TREE[variant]


def test_steered_randtree_fuzz_execution_trace():
    target = RandTreeFuzzTarget()
    plan = target.random_plan(random.Random(1))
    result = target.execute(plan, 1, steering=True)
    assert (result.trace_digest, result.violations) == (
        "9b9fc17e695dc5673bdd1e10c429bb4893cce7042dd6d51e8de1f859e93f7baf", [])


# (depth after join, depth after rejoin, failed nodes) at n=15, seed 2.
TREE = {
    "baseline": (5, 5, [1, 3, 4, 7, 8, 10, 12, 14]),
    "choice-random": (5, 5, [1, 3, 4, 6, 7, 8, 9, 10, 13]),
    "choice-crystalball": (4, 5, [1, 3, 4, 7, 8, 12, 13]),
}


@pytest.mark.parametrize("variant", sorted(TREE))
def test_tree_depths(variant):
    result = run_tree_experiment(variant, n=15, seed=2)
    assert (result.depth_after_join, result.depth_after_rejoin,
            result.failed_nodes) == TREE[variant]

