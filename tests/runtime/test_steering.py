"""Event filters, the steering module, and the one step that turns a
predicted violation into a filter."""

from dataclasses import dataclass
from types import SimpleNamespace

from repro.mc import (
    ActionOutcome,
    DeliverAction,
    PredictionReport,
    SafetyProperty,
    Violation,
    WorldState,
)
from repro.runtime import EventFilter, SteeringModule
from repro.runtime.steering import FILTER_TTL, steer
from repro.sim import Simulator
from repro.statemachine import Message
from repro.statemachine.serialization import freeze


@dataclass
class Evil(Message):
    n: int


def exact_filter(src=1, msg=None, expires=10.0):
    msg = msg if msg is not None else Evil(n=1)
    return EventFilter(src=src, msg_key=freeze(msg), expires_at=expires, reason="test")


def test_exact_filter_matches_same_payload():
    module = SteeringModule()
    module.install(exact_filter())
    assert module.matches(1, Evil(n=1), now=5.0) is not None


def test_exact_filter_rejects_different_payload():
    module = SteeringModule()
    module.install(exact_filter())
    assert module.matches(1, Evil(n=2), now=5.0) is None


def test_filter_is_per_source():
    module = SteeringModule()
    module.install(exact_filter(src=1))
    assert module.matches(2, Evil(n=1), now=5.0) is None


def test_expired_filter_does_not_match():
    module = SteeringModule()
    module.install(exact_filter(expires=1.0))
    assert module.matches(1, Evil(n=1), now=2.0) is None


def test_prune_drops_expired():
    module = SteeringModule()
    module.install(exact_filter(expires=1.0))
    module.prune(now=2.0)
    assert len(module) == 0


def test_duplicate_install_refreshes_expiry():
    module = SteeringModule()
    module.install(exact_filter(expires=5.0))
    module.install(exact_filter(expires=9.0))
    assert len(module) == 1
    assert module.active_filters[0].expires_at == 9.0


def test_filtered_count_increments():
    module = SteeringModule()
    module.install(exact_filter())
    module.matches(1, Evil(n=1), now=1.0)
    module.matches(1, Evil(n=1), now=2.0)
    assert module.filtered_count == 2


def test_install_reports_new_vs_refresh():
    # Regression: a duplicate install only refreshes the TTL — the
    # return value distinguishes that so callers don't overcount
    # installations.
    module = SteeringModule()
    assert module.install(exact_filter(expires=5.0)) is True
    assert module.install(exact_filter(expires=9.0)) is False
    assert len(module) == 1
    assert module.active_filters[0].expires_at == 9.0
    assert module.metrics.counter("runtime.filters_installed").value == 1
    assert module.metrics.counter("steering.refreshed").value == 1


def test_filtered_count_backed_by_registry():
    module = SteeringModule()
    module.install(exact_filter())
    assert module.matches(1, Evil(n=1), now=1.0) is not None
    assert module.filtered_count == 1
    assert module.metrics.counter("runtime.steered_messages").value == 1


# ----------------------------------------------------------------------
# steer(): from a hand-built prediction report, with no cluster
# ----------------------------------------------------------------------


class RecordingResolver:
    def __init__(self):
        self.invalidations = []

    def invalidate(self, reason):
        self.invalidations.append(reason)


def steering_runtime(holds=True):
    """What ``steer`` reads from a runtime: node 0 and one property
    that the present world satisfies (or, with ``holds=False``, not)."""
    return SimpleNamespace(
        node=SimpleNamespace(node_id=0, sim=Simulator(seed=1)),
        properties=[SafetyProperty("evil-free", lambda world: holds)],
        steering=SteeringModule(),
        resolver=RecordingResolver(),
    )


def predicted_violation():
    """A report whose one unsafe action is node 1's Evil reaching node 0."""
    world = WorldState(node_states={0: {}, 1: {}})
    action = DeliverAction(src=1, dst=0, msg=Evil(n=1))
    report = PredictionReport(outcomes=[ActionOutcome(
        action=action,
        violations=[Violation(property_name="evil-free", path=(action,), world=world)],
    )], total_states=1)
    return report, world


def test_predicted_violation_installs_one_filter():
    runtime = steering_runtime()
    steer(runtime, *predicted_violation())
    assert runtime.steering.metrics.counter("runtime.filters_installed").value == 1
    assert runtime.resolver.invalidations == ["steering"]
    (installed,) = runtime.steering.active_filters
    assert (installed.src, installed.expires_at, installed.reason) == (1, FILTER_TTL, "evil-free")
    assert runtime.steering.matches(1, Evil(n=1), now=1.0) is installed
    records = runtime.node.sim.trace.select("runtime.filter_installed")
    assert [(r.data["src"], r.data["msg"]) for r in records] == [(1, "Evil")]


def test_repeated_prediction_only_refreshes_the_filter():
    runtime = steering_runtime()
    steer(runtime, *predicted_violation())
    runtime.node.sim.run(until=4.0)
    steer(runtime, *predicted_violation())
    assert runtime.steering.metrics.counter("runtime.filters_installed").value == 1
    assert runtime.resolver.invalidations == ["steering"]
    assert len(runtime.steering) == 1
    assert runtime.steering.active_filters[0].expires_at == 4.0 + FILTER_TTL
    assert runtime.steering.snapshot()["refreshed"] == 1
    assert runtime.node.sim.trace.count("runtime.filter_installed") == 2


def test_world_already_violating_steers_nothing():
    runtime = steering_runtime(holds=False)
    steer(runtime, *predicted_violation())
    records = runtime.node.sim.trace.select("runtime.steer_impossible")
    assert [(r.node, r.data["unsafe"]) for r in records] == [(0, 1)]
    assert len(runtime.steering) == 0
    assert not runtime.resolver.invalidations
