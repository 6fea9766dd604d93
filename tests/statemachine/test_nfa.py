"""NFA mode: multiple applicable handlers resolved by the runtime."""

from dataclasses import dataclass

from repro.statemachine import Cluster, Message, SandboxContext, Service, msg_handler

from ..choice.doubles import ScriptedResolver


@dataclass
class Event(Message):
    n: int


class TwoWays(Service):
    """Two unguarded handlers for the same message type."""

    state_fields = ("path",)

    def __init__(self, node_id):
        super().__init__(node_id)
        self.path = []

    def on_init(self):
        if self.node_id == 0:
            self.send(1, Event(n=1))
            self.send(1, Event(n=2))

    @msg_handler(Event)
    def way_a(self, src, msg):
        self.path.append(("a", msg.n))

    @msg_handler(Event)
    def way_b(self, src, msg):
        self.path.append(("b", msg.n))


def specs_by_name(service, msg):
    return {s.name: s for s in service.applicable_handlers(0, msg)}


def test_default_resolver_picks_first_handler():
    cluster = Cluster(2, TwoWays, seed=1)
    cluster.start_all()
    cluster.run(until=2)
    assert cluster.service(1).path == [("a", 1), ("a", 2)]


def test_scripted_resolver_picks_named_handler():
    cluster = Cluster(2, TwoWays, seed=1)
    service = cluster.service(1)
    specs = specs_by_name(service, Event(n=0))
    cluster.node(1).choice_resolver = ScriptedResolver(
        {"handler:Event": [specs["way_b"], specs["way_a"]]}
    )
    cluster.start_all()
    cluster.run(until=2)
    assert service.path == [("b", 1), ("a", 2)]


def test_handler_choice_traced():
    cluster = Cluster(2, TwoWays, seed=1)
    cluster.start_all()
    cluster.run(until=2)
    records = cluster.sim.trace.select("choice.handler")
    assert len(records) == 2
    assert records[0].data["label"] == "handler:Event"


class NoHandlerChoice(SandboxContext):
    def choose_handler(self, src, msg, specs):
        raise AssertionError("a named delivery must not choose a handler")


def test_named_delivery_runs_that_handler_without_a_choice():
    service = TwoWays(1)
    service.ctx = NoHandlerChoice(1)
    assert set(specs_by_name(service, Event(n=1))) == {"way_a", "way_b"}
    assert service.deliver(0, Event(n=1), handler="way_b")
    assert service.path == [("b", 1)]
