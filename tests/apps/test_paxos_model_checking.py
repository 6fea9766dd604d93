"""Model-checking Paxos: agreement verified by state-space exploration.

The paper's runtime uses the same explorer both to *check* safety and
to *predict* performance; this test exercises the checking half on the
hardest protocol in the repo.  Agreement ("no two replicas decide
different values for one instance") must hold across every explored
interleaving of a two-proposer contention scenario.
"""

from repro.apps.paxos import AGREEMENT, PaxosConfig, Prepare, make_ballot, make_paxos_factory
from repro.mc import Explorer, InFlightMessage, SafetyProperty, WorldState


def accepted_monotone(world: WorldState) -> bool:
    """The acceptor invariant: an acceptor never holds an accepted
    ballot above its promise (shared with the churn property test)."""
    for node_id in world.node_ids:
        state = world.state_of(node_id)
        for instance, (ballot, _value) in state.get("accepted", {}).items():
            if ballot > state.get("promised", {}).get(instance, ballot):
                return False
    return True


def make_contention_world(factory, n=3):
    """Two competing Prepare rounds for the same instance, in flight."""
    services = [factory(i) for i in range(n)]
    # Proposers 1 and 2 are mid-proposal (phase "prepare").
    for proposer, round_number in ((1, 1), (2, 2)):
        ballot = make_ballot(round_number, proposer, n)
        services[proposer].proposals[0] = {
            "ballot": ballot, "value": (proposer, 99),
            "proposing": (proposer, 99), "phase": "prepare",
            "promise_from": [], "best_accepted_ballot": -1,
            "best_accepted_value": None, "accepted_from": [],
            "started_at": 0.0, "min_round": 1,
        }
    inflight = []
    for proposer, round_number in ((1, 1), (2, 2)):
        ballot = make_ballot(round_number, proposer, n)
        for target in range(n):
            inflight.append(
                InFlightMessage(proposer, target, Prepare(instance=0, ballot=ballot))
            )
    states = {i: services[i].checkpoint() for i in range(n)}
    return WorldState(node_states=states, inflight=inflight)


def test_agreement_holds_across_explored_interleavings():
    config = PaxosConfig(n=3, requests_per_node=0)
    factory = make_paxos_factory("mencius", config)
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


def test_exploration_with_message_drops_stays_safe():
    config = PaxosConfig(n=3, requests_per_node=0)
    factory = make_paxos_factory("mencius", config)
    world = make_contention_world(factory)
    explorer = Explorer(
        factory,
        properties=[AGREEMENT],
        include_drops=True,
    )
    result = explorer.bfs(world, max_depth=4, max_states=3000)
    assert not result.found_violation


def test_injected_bad_accept_is_caught():
    """Sanity check that the checker *can* fail: force a disagreement."""
    config = PaxosConfig(n=3, requests_per_node=0)
    factory = make_paxos_factory("mencius", config)
    services = [factory(i) for i in range(3)]
    services[0].chosen[0] = (0, 1)
    services[2].chosen[0] = (2, 2)  # conflicting decision, at the last replica
    states = {i: services[i].checkpoint() for i in range(3)}
    world = WorldState(node_states=states)
    explorer = Explorer(factory, properties=[AGREEMENT])
    result = explorer.bfs(world, max_depth=1, max_states=10)
    assert result.found_violation
