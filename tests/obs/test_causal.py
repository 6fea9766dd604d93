"""Causal tracer: cause links, context propagation, happens-before graphs."""

from dataclasses import dataclass

from repro.obs import HappensBeforeGraph, enable_causal_tracing
from repro.statemachine import Cluster, Message, Service, msg_handler, timer_handler


@dataclass
class Token(Message):
    hops: int


class RelayService(Service):
    """0 starts a token that relays 0 -> 1 -> 2."""

    state_fields = ("seen",)

    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = 0

    def on_init(self):
        if self.node_id == 0:
            self.set_timer("kick", 0.1)

    @timer_handler("kick")
    def kick(self, payload):
        self.send(1, Token(hops=0))

    @msg_handler(Token)
    def relay(self, src, msg):
        self.seen += 1
        if self.node_id < 2:
            self.send(self.node_id + 1, Token(hops=msg.hops + 1))


def run_relay(causal=True, until=5.0, seed=7):
    cluster = Cluster(3, RelayService, seed=seed, causal=causal)
    cluster.start_all()
    cluster.run(until=until)
    return cluster


def test_causal_off_by_default():
    cluster = Cluster(3, RelayService, seed=7)
    assert cluster.causal is None
    assert cluster.sim.causal is None
    cluster.start_all()
    cluster.run(until=5.0)
    for rec in cluster.sim.trace:
        assert rec.causal is None


def test_sends_and_delivers_are_stamped():
    cluster = run_relay()
    sends = cluster.sim.trace.select("net.send")
    delivers = cluster.sim.trace.select("net.deliver")
    assert sends and delivers
    for rec in sends + delivers:
        assert rec.causal is not None
        assert rec.causal["ev"] > 0


def test_deliver_parent_is_the_send():
    cluster = run_relay()
    graph = HappensBeforeGraph.from_trace(cluster.sim.trace)
    for deliver in graph.by_category("net.deliver"):
        parent = graph.event(deliver.parent)
        assert parent is not None
        assert parent.category == "net.send"
        assert parent.data["dst"] == deliver.node


def test_chain_runs_start_timer_send_deliver():
    cluster = run_relay()
    graph = HappensBeforeGraph.from_trace(cluster.sim.trace)
    deliver_at_2 = [e for e in graph.by_category("net.deliver") if e.node == 2]
    chain = graph.chain(deliver_at_2[0].id)
    cats = [e.category for e in chain]
    # token at node 2: start(0) -> kick timer -> send(0->1) -> deliver(1)
    #                  -> send(1->2) -> deliver(2), one shared trace id.
    assert cats == ["node.start", "node.timer", "net.send", "net.deliver",
                    "net.send", "net.deliver"]
    assert len({e.trace_id for e in chain}) == 1


def test_starts_at_different_nodes_are_concurrent():
    # Node starts open fresh traces: neither is on the other's cause
    # chain, so they are causally unordered.
    cluster = run_relay()
    graph = HappensBeforeGraph.from_trace(cluster.sim.trace)
    starts = graph.by_category("node.start")
    assert len(starts) == 3
    assert len({e.trace_id for e in starts}) == 3
    for a in starts:
        for b in starts:
            if a is not b:
                assert a.id not in [e.id for e in graph.chain(b.id)]


def test_timer_fire_parented_to_arming_event():
    cluster = run_relay()
    graph = HappensBeforeGraph.from_trace(cluster.sim.trace)
    timers = graph.by_category("node.timer")
    assert timers
    parent = graph.event(timers[0].parent)
    assert parent is not None
    assert parent.category == "node.start"


def test_trace_digest_identical_with_and_without_causal():
    from repro.sim.trace import trace_digest

    on = run_relay(causal=True)
    off = run_relay(causal=False)
    assert trace_digest(on.sim.trace) == trace_digest(off.sim.trace)
    assert len(on.sim.trace) == len(off.sim.trace)


def _dispatch_of(graph, event):
    """The delivery or timer fire ``event`` happened in: its nearest
    cause that is not a choice resolution."""
    causes = graph.chain(event.id)[:-1]
    while causes and causes[-1].category == "choice.resolve":
        causes.pop()
    return causes[-1].id if causes else None


def test_choice_event_roots_downstream_sends():
    # A choice resolved mid-dispatch must be on the cause chain of every
    # send issued later in the same dispatch — that is what lets
    # forensics root explanation chains at choice points.
    from repro.apps.paxos import PaxosConfig, make_paxos_factory
    from repro.eval import wan_topology

    config = PaxosConfig(n=5, request_interval=1.0, requests_per_node=1)
    cluster = Cluster(5, make_paxos_factory(config),
                      topology=wan_topology(5), seed=1, causal=True)
    cluster.start_all()
    cluster.run(until=4.0)
    graph = HappensBeforeGraph.from_trace(cluster.sim.trace)
    choices = [e for e in graph.by_category("choice.resolve")
               if e.data.get("label") == "proposer"]
    assert choices
    sends = graph.by_category("net.send")
    downstream = 0
    for choice in choices:
        dispatch = _dispatch_of(graph, choice)
        assert dispatch is not None
        for send in sends:
            if send.id > choice.id and _dispatch_of(graph, send) == dispatch:
                assert choice.id in [e.id for e in graph.chain(send.id)]
                downstream += 1
    assert downstream  # the routed request/proposal is downstream of a choice


def test_enable_on_live_simulator_stamps_from_then_on():
    cluster = Cluster(3, RelayService, seed=7)
    cluster.start_all()
    cluster.run(until=0.05)  # before the kick timer (t=0.1) fires
    before = len(cluster.sim.trace)
    enable_causal_tracing(cluster.sim)
    cluster.run(until=5.0)
    records = list(cluster.sim.trace)
    assert all(r.causal is None for r in records[:before])
    assert any(r.causal is not None for r in records[before:])


def test_graph_annotations_attach_unstamped_records():
    # Records emitted inside a dispatch without their own event (e.g.
    # app-level context.record calls) link to the surrounding event.
    cluster = run_relay()
    trace = cluster.sim.trace
    graph = HappensBeforeGraph.from_trace(trace)
    ambient = [r for r in trace
               if r.causal is not None and "ev" not in r.causal]
    for rec in ambient:
        anchor = rec.causal["in"]
        assert graph.event(anchor) is not None
