"""Layered service stacks: routing, namespacing, checkpoints, MC compat."""

from dataclasses import dataclass

import pytest

from repro.mc import Explorer, InFlightMessage, WorldState
from repro.statemachine import (
    Cluster,
    LayerEnvelope,
    Message,
    Service,
    ServiceStack,
    make_stack_factory,
    msg_handler,
    timer_handler,
)


@dataclass
class Hello(Message):
    text: str


@dataclass
class Count(Message):
    n: int


class MembershipLayer(Service):
    """Lower layer: announces itself, tracks who it heard from."""

    state_fields = ("peers_seen",)

    def __init__(self, node_id, n=2):
        super().__init__(node_id)
        self.n = n
        self.peers_seen = []

    def on_init(self):
        for peer in range(self.n):
            if peer != self.node_id:
                self.send(peer, Hello(text=f"hi from {self.node_id}"))

    @msg_handler(Hello)
    def on_hello(self, src, msg):
        if src not in self.peers_seen:
            self.peers_seen.append(src)


class CounterLayer(Service):
    """Upper layer: periodic counting using the membership layer's view."""

    state_fields = ("count", "targets")

    def __init__(self, node_id):
        super().__init__(node_id)
        self.count = 0
        self.targets = []

    def on_init(self):
        self.set_timer("tick", 1.0)

    @timer_handler("tick")
    def on_tick(self, payload):
        self.count += 1
        # Downcall to the sibling layer through the stack.
        membership = self.stack.layer("member")
        self.targets = list(membership.peers_seen)
        for peer in self.targets:
            self.send(peer, Count(n=self.count))
        self.set_timer("tick", 1.0)

    @msg_handler(Count)
    def on_count(self, src, msg):
        self.count = max(self.count, msg.n)


def stack_factory(n=2):
    return make_stack_factory([
        ("member", lambda nid: MembershipLayer(nid, n)),
        ("counter", lambda nid: CounterLayer(nid)),
    ])


def test_layers_route_independently():
    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.run(until=3.5)
    for node_id in range(2):
        stack = cluster.service(node_id)
        assert stack.layer("member").peers_seen == [1 - node_id]
        assert stack.layer("counter").count >= 3


def test_cross_layer_downcall():
    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.run(until=2.5)
    assert cluster.service(0).layer("counter").targets == [1]


def test_checkpoint_aggregates_layers():
    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.run(until=2.5)
    stack = cluster.service(0)
    checkpoint = stack.checkpoint()
    assert set(checkpoint) == {"member", "counter"}
    assert checkpoint["counter"]["count"] == stack.layer("counter").count


def test_restore_roundtrip():
    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.run(until=2.5)
    stack = cluster.service(0)
    saved = stack.checkpoint()
    digest = stack.state_digest()
    cluster.run(until=6.5)
    assert stack.state_digest() != digest
    stack.restore(saved)
    assert stack.state_digest() == digest


def test_state_digest_is_the_digest_of_the_checkpoint():
    from repro.statemachine import digest

    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.run(until=2.5)
    stack = cluster.service(0)
    assert stack.state_digest() == digest(stack.checkpoint())
    assert stack.live_state() == stack.checkpoint()


def test_restore_does_not_alias_the_checkpoint():
    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.run(until=2.5)
    stack = cluster.service(0)
    saved = stack.checkpoint()
    stack.restore(saved)
    assert stack.layer("counter").targets == saved["counter"]["targets"]
    assert stack.layer("counter").targets is not saved["counter"]["targets"]


def test_unknown_layer_traced_not_crashing():
    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.network.send(0, 1, LayerEnvelope(layer="ghost", inner=Hello(text="?")))
    cluster.run(until=1.0)
    assert cluster.sim.trace.count("stack.unknown_layer") == 1


def test_duplicate_layer_rejected():
    with pytest.raises(ValueError):
        ServiceStack(0, [("a", CounterLayer(0)), ("a", CounterLayer(0))])


def test_layer_name_separator_rejected():
    with pytest.raises(ValueError):
        ServiceStack(0, [("a:b", CounterLayer(0))])


def test_stack_explorable_by_model_checker():
    factory = stack_factory()
    services = [factory(i) for i in range(2)]
    world = WorldState(
        node_states={i: services[i].checkpoint() for i in range(2)},
        inflight=[
            InFlightMessage(0, 1, LayerEnvelope(layer="member",
                                                inner=Hello(text="hi from 0"))),
        ],
        timers=[],
    )
    explorer = Explorer(factory)
    actions = explorer.enabled_actions(world)
    assert len(actions) == 1
    successor, = explorer.successors(world, actions[0])
    assert successor.state_of(1)["member"]["peers_seen"] == [0]


def test_stack_timers_namespaced():
    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.run(until=0.5)
    names = [name for name, _, _ in cluster.node(0).pending_timers()]
    assert "counter:tick" in names
