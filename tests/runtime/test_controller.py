"""CrystalBall runtime: checkpoint exchange, models, prediction, steering."""

from dataclasses import dataclass

import pytest

from repro.choice.resolvers import FirstResolver
from repro.mc import DeliverAction, SafetyProperty, TimerAction
from repro.runtime import CheckpointMsg, CrystalBallRuntime, install_crystalball
from repro.runtime.steering import steer
from repro.statemachine import Cluster, Message, Service, msg_handler, timer_handler
from repro.statemachine.node import DispatchRecord


@dataclass
class Bump(Message):
    amount: int


class CounterService(Service):
    state_fields = ("value",)

    def __init__(self, node_id: int, n: int = 3) -> None:
        super().__init__(node_id)
        self.n = n
        self.value = 0

    def on_init(self) -> None:
        self.set_timer("bump", 1.0)

    @timer_handler("bump")
    def on_bump_timer(self, payload) -> None:
        peer = (self.node_id + 1) % self.n
        self.send(peer, Bump(amount=1))
        self.set_timer("bump", 1.0)

    @msg_handler(Bump)
    def on_bump(self, src: int, msg: Bump) -> None:
        self.value += msg.amount


def factory(node_id):
    return CounterService(node_id, 3)


def make_cluster(**runtime_kwargs):
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(cluster, factory, **runtime_kwargs)
    return cluster, runtimes


def test_checkpoints_reach_neighbors():
    cluster, runtimes = make_cluster(checkpoint_period=0.5)
    cluster.start_all()
    cluster.run(until=3.0)
    for runtime in runtimes:
        assert set(runtime.state_model.known_nodes()) == {0, 1, 2}
        assert runtime.stats["checkpoints_received"] > 0


def test_checkpoint_messages_hidden_from_service():
    cluster, _ = make_cluster(checkpoint_period=0.5)
    cluster.start_all()
    cluster.run(until=3.0)
    assert cluster.sim.trace.count("service.unhandled") == 0


def test_passive_latency_measurement():
    cluster, runtimes = make_cluster(checkpoint_period=0.5)
    cluster.start_all()
    cluster.run(until=3.0)
    model = runtimes[1].network_model
    # Full-mesh default latency is 0.05s; measured should be near it.
    assert 0.01 < model.latency(0, 1) < 0.2


def test_current_world_includes_fresh_self():
    cluster, runtimes = make_cluster(checkpoint_period=0.5)
    cluster.start_all()
    cluster.run(until=2.2)
    world = runtimes[0].current_world()
    assert world.state_of(0) == cluster.service(0).checkpoint()


def test_current_world_marks_down_nodes():
    cluster, runtimes = make_cluster(checkpoint_period=0.5)
    cluster.start_all()
    cluster.run(until=2.0)
    cluster.node(2).crash()
    world = runtimes[0].current_world()
    assert 2 in world.down


def test_run_prediction_counts_states():
    cluster, runtimes = make_cluster(checkpoint_period=0.5, chain_depth=2, budget=100)
    cluster.start_all()
    cluster.run(until=2.0)
    report = runtimes[0].run_prediction()
    assert runtimes[0].stats["predictions"] == 1
    assert runtimes[0].stats["states_explored"] >= report.total_states


def test_replay_of_a_dispatch_that_writes_nothing_returns_its_checkpoint():
    cluster, runtimes = make_cluster()
    checkpoint = cluster.services[0].checkpoint()
    # The bump timer sends and re-arms but writes no state field; a Bump
    # delivery writes ``value``.
    idle = runtimes[0]._replay(DispatchRecord(TimerAction(0, "bump"), checkpoint), None)
    assert idle[0] is checkpoint
    assert [dst for dst, _ in idle[1].sent] == [1]
    bumped = runtimes[0]._replay(
        DispatchRecord(DeliverAction(2, 0, Bump(amount=1)), checkpoint), None)
    assert bumped[0] is not checkpoint and bumped[0] == {"value": 1}
    assert checkpoint == {"value": 0}


def test_steering_installs_filter_and_breaks_connection():
    # Property: node 0's value must stay below 1 — any Bump delivery to
    # node 0 violates it, so prediction must install a filter.
    prop = SafetyProperty(
        "node0-low",
        lambda w: w.state_of(0).get("value", 0) < 1 if 0 in w.node_states else True,
    )
    cluster = Cluster(3, factory, seed=3)
    runtimes = install_crystalball(
        cluster, factory, properties=[prop],
        checkpoint_period=0.5, prediction_period=0.9, chain_depth=2, budget=300,
    )
    cluster.start_all()
    cluster.run(until=6.0)
    runtime = runtimes[0]
    assert runtime.stats["filters_installed"] > 0
    assert runtime.stats["steered_messages"] > 0
    # The steering module reads the same counter as ``stats``.
    assert runtime.steering.filtered_count == runtime.stats["steered_messages"]
    assert cluster.service(0).value == 0  # steering kept the property
    assert cluster.network.connection_epoch(0, 2) > 0  # connection broken
    # Each steered message and each filter install is one trace record.
    trace = cluster.sim.trace
    steers = [r for r in trace.select("runtime.steer") if r.category == "runtime.steer"]
    assert len(steers) == runtime.stats["steered_messages"]
    assert {(r.data["msg"], r.data["reason"]) for r in steers} == {("Bump", "node0-low")}
    installed = trace.select("runtime.filter_installed", node=0)
    assert installed and all(r.data["reason"] == "node0-low" for r in installed)


def test_live_violation_is_traced_not_steered():
    # A world that already violates the property cannot be steered away
    # from: the runtime records runtime.steer_impossible and installs
    # no filter.
    from repro.mc import ActionOutcome, PredictionReport, Violation

    cluster, runtimes = make_cluster(
        properties=[SafetyProperty("always-bad", lambda w: False)],
        checkpoint_period=0.0,
    )
    cluster.start_all()
    cluster.run(until=0.5)
    runtime = runtimes[0]
    world = runtime.current_world()
    action = DeliverAction(src=1, dst=0, msg=Bump(amount=1), handler="on_bump")
    report = PredictionReport(
        outcomes=[ActionOutcome(
            action=action,
            violations=[Violation(property_name="always-bad", path=(action,), world=world)],
        )],
        total_states=1,
    )
    steer(runtime, report, world)
    records = cluster.sim.trace.select("runtime.steer_impossible")
    assert [(r.node, r.data["unsafe"]) for r in records] == [(0, 1)]
    assert runtime.stats["filters_installed"] == 0


def test_prediction_exception_degrades(monkeypatch):
    """A periodic round whose predictor raises is skipped and counted;
    the run goes on."""
    from repro.mc import ConsequencePredictor

    def boom(self, world):
        raise RuntimeError("checkpoint decode failed")

    monkeypatch.setattr(ConsequencePredictor, "predict", boom)
    cluster, runtimes = make_cluster(checkpoint_period=0.0, prediction_period=1.0)
    cluster.start_all()
    cluster.run(until=1.5)
    runtime = runtimes[0]
    assert runtime.stats["predictions"] == 0
    assert runtime.stats["degraded.round_skipped"] == 1
    assert runtime.stats["filters_installed"] == 0
    assert cluster.service(0).value == 1  # handlers kept running


def test_choice_requested_from_prediction_propagates():
    from repro.choice import ChoicePoint
    from repro.statemachine import ChoiceRequested

    cluster, runtimes = make_cluster(checkpoint_period=0.0)
    runtime = runtimes[0]

    def requesting():
        raise ChoiceRequested(ChoicePoint("c", [1], node_id=0), [], False)

    runtime.current_world = requesting
    with pytest.raises(ChoiceRequested):
        runtime.run_prediction()
    assert runtime.stats["degraded.round_skipped"] == 0


def test_no_steering_when_everything_safe():
    cluster, runtimes = make_cluster(
        checkpoint_period=0.5, prediction_period=1.0, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=4.0)
    assert all(r.stats["filters_installed"] == 0 for r in runtimes)


def test_neighbors_default_all_topology_nodes():
    cluster, runtimes = make_cluster(checkpoint_period=0.0)
    assert runtimes[0].exchange.neighbors() == [1, 2]


def test_missing_fallback_is_a_configuration_error():
    """The runtime's fallback is checked when the runtime is built, not
    at the first choice prediction cannot answer."""
    from repro.choice import ConfigurationError

    cluster = Cluster(3, factory, seed=3)
    with pytest.raises(ConfigurationError) as err:
        CrystalBallRuntime(cluster.node(0), factory, fallback=object())  # no .resolve
    assert "fallback" in str(err.value)
    # Omitting the argument means FirstResolver.
    runtime = CrystalBallRuntime(cluster.node(1), factory)
    assert isinstance(runtime.resolver.fallback, FirstResolver)


def test_missing_fallback_raises_at_install_time():
    from repro.choice import ConfigurationError

    for steering_policy in (False, True):
        cluster = Cluster(3, factory, seed=3)
        with pytest.raises(ConfigurationError):
            install_crystalball(
                cluster, factory, fallback=None, steering_policy=steering_policy,
            )
        assert cluster.node(0).crystalball is None


def test_broadcast_checkpoints_service_exactly_once():
    # Regression: broadcast_checkpoint used to call service.checkpoint()
    # twice per broadcast — once for the local state model and once for
    # the wire message.
    cluster, runtimes = make_cluster(checkpoint_period=0.0)
    cluster.start_all()
    cluster.run(until=0.5)
    service = cluster.service(0)
    calls = []
    original = service.checkpoint

    def counting_checkpoint():
        calls.append(1)
        return original()

    service.checkpoint = counting_checkpoint
    runtimes[0].broadcast_checkpoint()
    assert len(calls) == 1
    # The snapshot still reached both consumers: the state model holds
    # the new epoch and the neighbors got a checkpoint message.
    assert runtimes[0].state_model.get(0).epoch == runtimes[0].exchange.epoch
    assert runtimes[0].stats["checkpoints_sent"] == 2


# World changes that no scenario signature records flush every
# prediction store the runtime owns: the amortized scheduler's two tables.

def stores(runtime):
    amortized = runtime.amortized
    if amortized is None:
        return []
    return [amortized.rankings, amortized.answers]


def warm(runtime):
    runtime.run_prediction()
    if runtime.amortized is not None:
        now = runtime.node.sim.now
        runtime.amortized.install(("scenario",), ((1, 1.0),), now)
        runtime.amortized.answers[("point",)] = (1, now)
    assert all(len(store) > 0 for store in stores(runtime))


def warm_runtime(**runtime_kwargs):
    cluster, runtimes = make_cluster(checkpoint_period=0.0, **runtime_kwargs)
    cluster.start_all()
    cluster.run(until=0.5)
    warm(runtimes[0])
    return cluster, runtimes[0]


def install_filter(cluster):
    """Steer node 0 on a violation predicted one delivery away."""
    from repro.mc import ActionOutcome, PredictionReport, Violation

    runtime = cluster.node(0).crystalball
    world = runtime.current_world()
    action = DeliverAction(src=1, dst=0, msg=Bump(amount=1), handler="on_bump")
    outcome = ActionOutcome(
        action=action,
        violations=[Violation(property_name="p", path=(action,), world=world)],
    )
    report = PredictionReport(outcomes=[outcome], total_states=1)
    steer(runtime, report, world)


FLUSH_TRIGGERS = [
    ("partition", "topology:partition", lambda c: c.network.set_partition([{0}, {1, 2}])),
    ("heal", "topology:heal", lambda c: c.network.clear_partition()),
    ("break", "topology:break", lambda c: c.network.break_connection(0, 1)),
    ("liveness", "liveness", lambda c: c.node(2).crash()),
    ("steering", "steering", install_filter),
]


@pytest.mark.parametrize("reason, policy_reason, fire", FLUSH_TRIGGERS)
def test_world_change_flushes_every_prediction_store(reason, policy_reason, fire):
    cluster, runtime = warm_runtime(steering_policy=True, fallback=FirstResolver())
    fire(cluster)
    assert not any(len(store) for store in stores(runtime))
    assert runtime.amortized.snapshot()["policy"]["invalidations"] == {policy_reason: 1}


def test_filters_installed_not_inflated_by_ttl_refresh():
    # Regression: re-predicting the same violation refreshes the
    # existing filter's TTL; the installation counter must not grow,
    # and nothing is flushed for a filter that was already there.
    cluster, runtime = warm_runtime(steering_policy=True, fallback=FirstResolver())
    install_filter(cluster)
    warm(runtime)
    install_filter(cluster)
    assert runtime.stats["filters_installed"] == 1
    assert len(runtime.steering) == 1
    assert all(len(store) > 0 for store in stores(runtime))
    assert runtime.amortized.snapshot()["policy"]["invalidations"] == {"steering": 1}


def test_per_choice_runtime_takes_every_flush_trigger():
    # A per-choice runtime keeps no prediction store, so it subscribes
    # to neither observer.  Network and liveness observers are isolated
    # (a raising one is traced, not propagated), so "no error" is read
    # off the record.
    cluster, runtime = warm_runtime()
    assert runtime.amortized is None
    assert cluster.network.topology_listeners == []
    for _reason, _policy_reason, fire in FLUSH_TRIGGERS:
        fire(cluster)
    assert cluster.sim.trace.count("net.topology_listener_error") == 0
    assert cluster.network.liveness.notify_errors == 0


def test_runtime_metrics_registry_backs_stats():
    cluster, runtimes = make_cluster(checkpoint_period=0.5)
    cluster.start_all()
    cluster.run(until=2.0)
    runtime = runtimes[0]
    counters = runtime.metrics.counters()
    assert counters["runtime.checkpoints_sent{node=0}"] == \
        runtime.stats["checkpoints_sent"]
    # The checkpoint-broadcast span timed every broadcast on this node.
    span = runtime.metrics.span_stats("runtime.checkpoint_broadcast", node=0)
    assert span is not None and span.count > 0


@dataclass
class Note(Message):
    n: int


class LedgerService(Service):
    """State made of mutable containers, so aliasing would show."""

    state_fields = ("log", "seen")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.log = []
        self.seen = {}

    def on_init(self) -> None:
        self.set_timer("tick", 0.4)

    @timer_handler("tick")
    def on_tick(self, payload) -> None:
        self.log.append(len(self.log))
        self.send((self.node_id + 1) % 3, Note(n=len(self.log)))
        self.set_timer("tick", 0.4)

    @msg_handler(Note)
    def on_note(self, src: int, msg: Note) -> None:
        self.seen.setdefault(src, []).append(msg.n)


def test_prediction_and_live_mutation_leave_stored_checkpoints_unchanged():
    # latest_states() hands the model's stored checkpoints to the
    # predictor un-copied.  Exploring from them (handlers mutate pooled
    # services restored from those dicts) and the live run going on
    # must both leave them exactly as stored.
    from repro.statemachine import freeze

    cluster = Cluster(3, LedgerService, seed=3)
    runtimes = install_crystalball(
        cluster, LedgerService, checkpoint_period=0.5, prediction_period=0.0,
        chain_depth=3, budget=300,
    )
    cluster.start_all()
    cluster.run(until=3.0)
    runtime = runtimes[0]
    world = runtime.current_world()
    stored = {
        nid: runtime.state_model.get(nid).state
        for nid in runtime.state_model.known_nodes()
    }
    assert set(stored) == {0, 1, 2}
    assert all(world.state_of(nid) is state for nid, state in stored.items())
    before = {nid: freeze(state) for nid, state in stored.items()}
    assert any(state["log"] and state["seen"] for state in stored.values())

    report = runtime.run_prediction()
    assert report.total_states > 1
    for service in cluster.services:
        service.log.append("live")
        service.seen.setdefault(9, []).append("live")
    cluster.run(until=5.0)

    assert {nid: freeze(state) for nid, state in stored.items()} == before
