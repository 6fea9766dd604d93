#!/usr/bin/env python
"""Using the model checker directly: safety, liveness, simulation.

The runtime uses ``repro.mc`` internally, but it is a standalone library
too.  This example points all three of its analyses at the hardest
protocol in the repo — Paxos under proposer contention:

1. **safety** — bounded BFS over every interleaving of two competing
   prepare rounds: agreement must hold in every visited state;
2. **liveness** — bounded progress-reachability: from the contention
   snapshot, a decided state must remain reachable;
3. **simulation** — random walks estimate the distribution of how long
   the contention takes to resolve.
"""

from repro.apps.paxos import (
    AGREEMENT,
    PaxosConfig,
    Prepare,
    make_ballot,
    make_paxos_factory,
)
from repro.mc import (
    BoundedLivenessChecker,
    Explorer,
    InFlightMessage,
    LivenessProperty,
    RandomWalkSimulator,
    WorldState,
)

N = 3


def somebody_decided(world):
    return any(world.state_of(n).get("chosen") for n in world.node_ids)


def contention_world(factory, proposers=((1, 1), (2, 2))):
    services = [factory(i) for i in range(N)]
    inflight = []
    for proposer, round_number in proposers:
        ballot = make_ballot(round_number, proposer, N)
        services[proposer].proposals[0] = {
            "ballot": ballot, "value": (proposer, 99), "proposing": (proposer, 99),
            "phase": "prepare", "promise_from": [], "best_accepted_ballot": -1,
            "best_accepted_value": None, "accepted_from": [], "started_at": 0.0,
            "min_round": 1,
        }
        for target in range(N):
            inflight.append(
                InFlightMessage(proposer, target, Prepare(instance=0, ballot=ballot))
            )
    return WorldState(
        node_states={i: services[i].checkpoint() for i in range(N)},
        inflight=inflight,
    )


def main():
    print(__doc__)
    factory = make_paxos_factory(PaxosConfig(n=N, requests_per_node=0))
    world = contention_world(factory)
    explorer = Explorer(factory, properties=[AGREEMENT])

    print("--- 1. safety: exhaustive bounded exploration ---")
    result = explorer.bfs(world, max_depth=6, max_states=4000)
    print(f"states explored: {result.states_explored}   "
          f"transitions: {result.transitions}   violations: {len(result.violations)}")
    # Why transitions are fewer than every enabled action of every state:
    # actions a sleep set skipped, handler steps served from the memo.
    print(f"pruned by sleep sets: {result.pruned}   "
          f"handler steps reused: {result.reused}")
    assert not result.found_violation

    print("\n--- 2. liveness: is a decision still reachable? ---")
    # A single proposer's round: the decision needs 8 causally ordered
    # deliveries; bounded reachability finds the witness.
    single = contention_world(factory, proposers=((1, 1),))
    checker = BoundedLivenessChecker(explorer, max_depth=8, max_states=30_000)
    liveness = checker.check(single, LivenessProperty("decided", somebody_decided))
    print(f"decided-state reachable: {liveness.reachable}   "
          f"witness length: {len(liveness.witness_path)} actions   "
          f"states: {liveness.states_explored}")
    assert liveness.reachable

    print("\n--- 3. simulation: how long does contention take? ---")
    simulator = RandomWalkSimulator(explorer, seed=1)
    report = simulator.sample(world, walks=40, max_steps=30,
                              metric=lambda w: 1.0 if somebody_decided(w) else 0.0)
    print(f"walks deciding within 30 steps: {report.mean_metric:.0%}   "
          f"mean simulated end time: {report.mean_final_time:.2f}s")


if __name__ == "__main__":
    main()
