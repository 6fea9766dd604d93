"""Consequence prediction: causal chains, budgets, scoring."""

import pytest

from repro.choice import PerformanceObjective
from repro.mc import (
    ConsequencePredictor,
    Explorer,
    InFlightMessage,
    PendingTimer,
    SafetyProperty,
    WorldState,
    score_outcome,
)

from .conftest import Token, TokenService


def world_with(factory, inflight=(), timers=(), n=3):
    states = {i: factory(i).checkpoint() for i in range(n)}
    return WorldState(node_states=states, inflight=inflight, timers=timers)


def total_sum(world):
    return sum(world.state_of(n)["total"] for n in world.node_ids)


def test_outcome_per_enabled_action(token_factory):
    world = world_with(
        token_factory,
        inflight=[InFlightMessage(0, 1, Token(value=1))],
        timers=[PendingTimer(0, "kick", None, 1.0)],
    )
    predictor = ConsequencePredictor(Explorer(token_factory), chain_depth=2, budget=500)
    report = predictor.predict(world)
    assert len(report.outcomes) == 2  # one delivery + one timer


def test_chain_follows_causal_events(token_factory):
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    predictor = ConsequencePredictor(Explorer(token_factory), chain_depth=4, budget=500)
    report = predictor.predict(world)
    outcome = report.outcomes[0]
    # Chains must reach worlds where the token was forwarded at least
    # twice (total >= 3 across nodes: deliveries accumulate).
    assert any(total_sum(world) >= 3 for world in outcome.leaf_worlds)


def test_chain_depth_bounds_leaves(token_factory):
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    predictor = ConsequencePredictor(Explorer(token_factory), chain_depth=1, budget=500)
    report = predictor.predict(world)
    for leaf in report.outcomes[0].leaf_worlds:
        assert leaf.depth <= 1


def test_budget_limits_states(token_factory):
    world = world_with(
        token_factory,
        timers=[PendingTimer(i, "kick", None, 1.0) for i in range(3)],
    )
    predictor = ConsequencePredictor(Explorer(token_factory), chain_depth=6, budget=20)
    report = predictor.predict(world)
    assert report.total_states <= 25  # budget plus per-action slack


def test_violations_attributed_to_initial_action(token_factory):
    prop = SafetyProperty(
        "node2-never-receives", lambda w: w.state_of(2)["total"] == 0,
    )
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    predictor = ConsequencePredictor(
        Explorer(token_factory, properties=[prop]), chain_depth=4, budget=500,
    )
    report = predictor.predict(world)
    unsafe = report.unsafe_actions()
    assert len(unsafe) == 1
    assert unsafe[0].dst == 1


def test_score_outcome_penalizes_violations(token_factory):
    prop = SafetyProperty("never", lambda w: False)
    world = world_with(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    predictor = ConsequencePredictor(
        Explorer(token_factory, properties=[prop]), chain_depth=1, budget=100,
    )
    report = predictor.predict(world)
    objective = PerformanceObjective("sum", total_sum)
    assert score_outcome(report.outcomes[0], objective) < -1000


def test_invalid_chain_depth():
    with pytest.raises(ValueError):
        ConsequencePredictor(Explorer(lambda nid: TokenService(nid)), chain_depth=0)
