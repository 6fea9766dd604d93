"""Model-checking Paxos: agreement verified by state-space exploration.

The paper's runtime uses the same explorer both to *check* safety and
to *predict* performance; this test exercises the checking half on the
hardest protocol in the repo.  Agreement ("no two replicas decide
different values for one instance") must hold across every explored
interleaving of a two-proposer contention scenario.
"""

from repro.apps.paxos import AGREEMENT, PaxosConfig, Prepare, make_ballot, make_paxos_factory
from repro.mc import (BoundedLivenessChecker, Explorer, InFlightMessage, LivenessProperty,
                      SafetyProperty, WorldState)


def accepted_monotone(world: WorldState) -> bool:
    """The acceptor invariant: an acceptor never holds an accepted
    ballot above its promise (shared with the churn property test)."""
    for node_id in world.node_ids:
        state = world.state_of(node_id)
        for instance, (ballot, _value) in state.get("accepted", {}).items():
            if ballot > state.get("promised", {}).get(instance, ballot):
                return False
    return True


def make_contention_world(factory, n=3, proposers=((1, 1), (2, 2))):
    """Competing Prepare rounds for the same instance, in flight: by
    default proposers 1 and 2 are mid-proposal (phase "prepare")."""
    services = [factory(i) for i in range(n)]
    for proposer, round_number in proposers:
        ballot = make_ballot(round_number, proposer, n)
        services[proposer].proposals[0] = {
            "ballot": ballot, "value": (proposer, 99),
            "proposing": (proposer, 99), "phase": "prepare",
            "promise_from": [], "best_accepted_ballot": -1,
            "best_accepted_value": None, "accepted_from": [],
            "started_at": 0.0, "min_round": 1,
        }
    inflight = []
    for proposer, round_number in proposers:
        ballot = make_ballot(round_number, proposer, n)
        for target in range(n):
            inflight.append(
                InFlightMessage(proposer, target, Prepare(instance=0, ballot=ballot))
            )
    states = {i: services[i].checkpoint() for i in range(n)}
    return WorldState(node_states=states, inflight=inflight)


def test_agreement_holds_across_explored_interleavings():
    config = PaxosConfig(n=3, requests_per_node=0)
    factory = make_paxos_factory(config)
    world = make_contention_world(factory)
    explorer = Explorer(
        factory,
        properties=[
            AGREEMENT,
            SafetyProperty("accepted-monotone", accepted_monotone),
        ],
    )
    result = explorer.bfs(world, max_depth=6, max_states=4000)
    assert result.states_explored > 100  # real interleaving coverage
    assert not result.found_violation
    # Pinned: batching, ranged prepares and catch-up add no reachable
    # state to a world that never submits a command.
    assert (result.states_explored, result.transitions) == (1346, 1862)


def test_exploration_with_message_drops_stays_safe():
    config = PaxosConfig(n=3, requests_per_node=0)
    factory = make_paxos_factory(config)
    world = make_contention_world(factory)
    explorer = Explorer(
        factory,
        properties=[AGREEMENT],
        include_drops=True,
    )
    result = explorer.bfs(world, max_depth=4, max_states=3000)
    assert not result.found_violation
    assert (result.states_explored, result.transitions) == (1331, 3506)


def test_truncated_exploration_counts_are_pinned():
    factory = make_paxos_factory(PaxosConfig(n=3, requests_per_node=0))
    result = Explorer(factory, properties=[AGREEMENT]).bfs(
        make_contention_world(factory), max_depth=8, max_states=3000)
    assert result.truncated
    assert (result.states_explored, result.transitions,
            result.pruned, result.reused) == (3000, 4085, 2849, 3551)


def test_decision_witness_is_eight_actions():
    """From one proposer's prepare round, a decided state is reachable:
    the shortest witness is its eight causally ordered deliveries."""
    factory = make_paxos_factory(PaxosConfig(n=3, requests_per_node=0))
    world = make_contention_world(factory, proposers=((1, 1),))
    checker = BoundedLivenessChecker(Explorer(factory, properties=[AGREEMENT]),
                                     max_depth=8, max_states=30_000)
    result = checker.check(world, LivenessProperty("decided", lambda w: any(
        w.state_of(n).get("chosen") for n in w.node_ids)))
    assert result.reachable
    assert (len(result.witness_path), result.states_explored) == (8, 313)


def test_injected_bad_accept_is_caught():
    """Sanity check that the checker *can* fail: force a disagreement."""
    config = PaxosConfig(n=3, requests_per_node=0)
    factory = make_paxos_factory(config)
    services = [factory(i) for i in range(3)]
    services[0].chosen[0] = (0, 1)
    services[2].chosen[0] = (2, 2)  # conflicting decision, at the last replica
    states = {i: services[i].checkpoint() for i in range(3)}
    world = WorldState(node_states=states)
    explorer = Explorer(factory, properties=[AGREEMENT])
    result = explorer.bfs(world, max_depth=1, max_states=10)
    assert result.found_violation
