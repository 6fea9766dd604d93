"""Shrinker: known counterexamples reduce to confirmed minimal plans."""

import pytest

from repro.chaos import CrashEvent, FaultPlan, LinkFaultEvent, SlowNodeEvent
from repro.fuzz import make_target, shrink_counterexample
from repro.fuzz.shrink import Shrinker

# A known Paxos agreement violation discovered by the seed-1 campaign
# (examples/corpus/paxos-seed1.json): a lossy WAN plus one amnesia crash
# loses Learns, and the recovering node's gap-fill NOOP overwrites a
# decided slot.  Cluster seed 0.
VIOLATING_EVENTS = [
    LinkFaultEvent(at=0.0, drop=0.06707331180341818,
                   reorder=0.29838742338764623, reorder_jitter=0.2),
    CrashEvent(at=2.0159579868413515, node=1, amnesia=True,
               recover_at=2.4116837929608907),
]
VIOLATING_SEED = 0


@pytest.fixture(scope="module")
def target():
    return make_target("paxos")


def _padded_plan():
    """The violating pair buried among irrelevant passenger events."""
    return FaultPlan(events=VIOLATING_EVENTS + [
        SlowNodeEvent(at=3.0, node=1, delay=0.05, until=5.0),
        CrashEvent(at=9.0, node=2, amnesia=False, recover_at=10.0),
    ])


def test_known_plan_still_violates(target):
    execution = target.execute(FaultPlan(events=list(VIOLATING_EVENTS)),
                               VIOLATING_SEED, probes=False)
    assert execution.violated
    assert any("agreement" in v for v in execution.violations)


def test_shrink_drops_passenger_events(target):
    result = shrink_counterexample(target, _padded_plan(), VIOLATING_SEED)
    assert result.confirmed
    assert result.violations
    assert len(result.shrunk) <= len(VIOLATING_EVENTS)
    assert result.ratio <= 0.5
    assert result.executions_used <= 200


def test_shrunk_plan_is_one_minimal(target):
    result = shrink_counterexample(target, _padded_plan(), VIOLATING_SEED)
    events = list(result.shrunk.events)
    if len(events) <= 1:
        return
    for index in range(len(events)):
        candidate = FaultPlan(events=events[:index] + events[index + 1:])
        execution = target.execute(candidate, VIOLATING_SEED, probes=False)
        assert not execution.violated, (
            f"dropping event {index} still violates - not 1-minimal"
        )


def test_shrink_is_deterministic(target):
    a = shrink_counterexample(target, _padded_plan(), VIOLATING_SEED)
    b = shrink_counterexample(target, _padded_plan(), VIOLATING_SEED)
    assert a.shrunk.digest() == b.shrunk.digest()
    assert a.horizon == b.horizon
    assert a.executions_used == b.executions_used


def test_horizon_trim_restores_target(target):
    before = target.horizon
    shrink_counterexample(target, _padded_plan(), VIOLATING_SEED)
    assert target.horizon == before


def test_non_violating_input_returns_unshrunk(target):
    plan = FaultPlan(events=[SlowNodeEvent(at=1.0, node=0, delay=0.01,
                                           until=2.0)])
    result = Shrinker(target).shrink(plan, VIOLATING_SEED)
    assert not result.confirmed
    assert result.shrunk is plan
    assert result.executions_used == 1
