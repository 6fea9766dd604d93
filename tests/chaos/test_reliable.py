"""At-least-once delivery layer: ack/retry/dedup over a lossy net."""

import pytest

from repro.chaos import (
    LinkChaos,
    LinkFaultProfile,
    ReliabilityConfig,
    ReliableLayer,
)
from repro.net import Network, full_mesh
from repro.sim import LivenessRegistry, Simulator


def make_layer(n=3, seed=9, config=None, profile=None):
    sim = Simulator(seed=seed)
    net = Network(sim, full_mesh(n, latency=0.02), LivenessRegistry())
    if profile is not None:
        chaos = LinkChaos(sim)
        chaos.set_profile(profile)
        net.add_fault_interposer(chaos)
    layer = ReliableLayer(net, config)
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        layer.attach(i, lambda src, dst, payload, i=i: inboxes[i].append(payload))
    return sim, net, layer, inboxes


def test_config_validated():
    with pytest.raises(ValueError):
        ReliabilityConfig(timeout=0.0)
    with pytest.raises(ValueError):
        ReliabilityConfig(backoff=0.5)
    with pytest.raises(ValueError):
        ReliabilityConfig(max_retries=-1)


def test_clean_link_delivers_unwrapped_payload():
    sim, net, layer, inboxes = make_layer()
    layer.send(0, 1, "hello")
    sim.run()
    assert inboxes[1] == ["hello"]
    assert layer.stats["acked"] == 1
    assert layer.pending_count == 0


def test_delegates_to_raw_network():
    sim, net, layer, _ = make_layer()
    assert layer.liveness is net.liveness
    assert layer.topology is net.topology


def test_unreliable_sends_pass_through_as_datagrams():
    sim, net, layer, inboxes = make_layer(
        profile=LinkFaultProfile(drop=0.9))
    for _ in range(20):
        layer.send(0, 1, "dgram", reliable=False)
    sim.run()
    assert 0 < len(inboxes[1]) < 20          # lossy — no retries
    assert layer.stats["sent"] == 0          # never entered the protocol


def test_all_messages_delivered_under_heavy_loss():
    sim, net, layer, inboxes = make_layer(
        profile=LinkFaultProfile(drop=0.3, duplicate=0.1))
    for k in range(100):
        layer.send(0, 1, k)
    sim.run()
    assert sorted(inboxes[1]) == list(range(100))   # exactly once, in some order
    assert layer.stats["retransmissions"] > 0
    assert layer.stats["duplicates_suppressed"] > 0


def test_duplicate_copies_suppressed_but_acked():
    sim, net, layer, inboxes = make_layer(
        profile=LinkFaultProfile(duplicate=0.99))
    layer.send(0, 1, "once")
    sim.run()
    assert inboxes[1] == ["once"]


def test_gives_up_after_max_retries():
    sim, net, layer, inboxes = make_layer(
        config=ReliabilityConfig(timeout=0.1, backoff=1.0, max_retries=2),
        profile=LinkFaultProfile(drop=0.999))
    layer.send(0, 1, "doomed")
    sim.run()
    assert inboxes[1] == []
    assert layer.stats["gave_up"] == 1
    assert layer.pending_count == 0


def test_sender_crash_abandons_outbox():
    sim, net, layer, inboxes = make_layer(
        config=ReliabilityConfig(timeout=0.5),
        profile=LinkFaultProfile(drop=0.999))
    layer.send(0, 1, "orphaned")
    sim.schedule_at(0.25, lambda: net.liveness.fail(0))
    sim.run(until=3.0)
    assert layer.pending_count == 0
    assert sim.trace.count("reliable.abandoned") == 1


def test_dedup_survives_receiver_amnesia():
    # Dedup state lives in the layer (the "NIC"), below the service, so
    # a recovered node does not re-deliver an already-seen message.
    sim, net, layer, inboxes = make_layer(
        config=ReliabilityConfig(timeout=0.3))

    def drop_acks_once():
        # Force one retransmission window by crashing/recovering the
        # receiver between the copies.
        net.liveness.fail(1)

    layer.send(0, 1, "m")
    sim.schedule_at(0.001, drop_acks_once)
    sim.schedule_at(0.2, lambda: net.liveness.recover(1))
    sim.run()
    assert inboxes[1] == ["m"]


def test_deterministic_given_seed():
    outcomes = []
    for _ in range(2):
        sim, net, layer, inboxes = make_layer(
            seed=13, profile=LinkFaultProfile(drop=0.4))
        for k in range(30):
            layer.send(0, 1, k)
        sim.run()
        outcomes.append((inboxes[1], dict(layer.stats)))
    assert outcomes[0] == outcomes[1]


def test_ack_cancels_pending_retry_timer():
    # Regression: every acked send used to leave its retry event live
    # in the simulator queue until the timeout expired — an unbounded
    # queue of dead events on busy clean links.
    sim, net, layer, inboxes = make_layer()
    for k in range(20):
        layer.send(0, 1, k)
    sim.run(until=0.1)  # acks arrive ~0.04s; retries were due at 0.3s
    assert layer.stats["acked"] == 20
    assert layer.pending_count == 0
    assert len(sim.queue) == 0


def test_reliable_stats_are_a_fresh_copy():
    """``stats`` is a plain dict of the protocol's counts, copied on each
    read: writing to it counts nothing."""
    sim, net, layer, inboxes = make_layer()
    layer.send(0, 1, "hello")
    sim.run()
    stats = layer.stats
    assert type(stats) is dict
    assert stats == {
        "sent": 1, "acked": 1, "retransmissions": 0,
        "duplicates_suppressed": 0, "gave_up": 0,
    }
    assert layer.stats is not stats
    stats["acked"] += 5
    assert layer.stats["acked"] == 1


# ----------------------------------------------------------------------
# Causal attribution of retransmissions and duplicates
# ----------------------------------------------------------------------


def make_causal_layer(n=2, seed=9, profile=None, config=None):
    from repro.obs import enable_causal_tracing

    sim, net, layer, inboxes = make_layer(n=n, seed=seed, config=config,
                                          profile=profile)
    tracer = enable_causal_tracing(sim)
    return sim, net, layer, inboxes, tracer


def send_in_dispatch(sim, layer, tracer, src, dst, payload):
    """Send from inside an (artificial) dispatch scope, the way a
    service handler would — so the pending send has a causal cause."""
    root = tracer.local_event()
    sim.trace.record(sim.now, "app.op", node=src)
    with tracer.executing(root):
        layer.send(src, dst, payload)
    return root


def test_retransmissions_record_net_retry():
    sim, net, layer, inboxes = make_layer(
        profile=LinkFaultProfile(drop=0.99),
        config=ReliabilityConfig(timeout=0.1, max_retries=3))
    layer.send(0, 1, "m")
    sim.run(until=2.0)
    retries = sim.trace.select("net.retry")
    assert len(retries) == 3
    assert retries[0].node == 0
    assert retries[0].data == {"dst": 1, "seq": 0, "attempt": 2}
    assert layer.stats["retransmissions"] == 3


def test_net_retry_records_identical_with_causal_on():
    def run(causal):
        if causal:
            sim, net, layer, inboxes, tracer = make_causal_layer(
                profile=LinkFaultProfile(drop=0.99),
                config=ReliabilityConfig(timeout=0.1, max_retries=3))
        else:
            sim, net, layer, inboxes = make_layer(
                profile=LinkFaultProfile(drop=0.99),
                config=ReliabilityConfig(timeout=0.1, max_retries=3))
        layer.send(0, 1, "m")
        sim.run(until=2.0)
        return [(r.time, r.node, dict(r.data))
                for r in sim.trace.select("net.retry")]

    assert run(causal=True) == run(causal=False)


def test_retry_attempts_share_the_original_trace():
    sim, net, layer, inboxes, tracer = make_causal_layer(
        profile=LinkFaultProfile(drop=0.99),
        config=ReliabilityConfig(timeout=0.1, max_retries=2))
    root = send_in_dispatch(sim, layer, tracer, 0, 1, "m")
    sim.run(until=2.0)
    [op] = sim.trace.select("app.op")
    assert op.causal["ev"] == root
    root_trace = op.causal["trace"]
    retries = sim.trace.select("net.retry")
    assert len(retries) == 2
    for rec in retries:
        # each retransmission re-entered the original dispatch scope
        assert rec.causal["in"] == root
        assert rec.causal["trace"] == root_trace
    # every dropped attempt still chains back to the original trace
    drops = [r for r in sim.trace.select("net.drop")
             if r.data.get("kind") == "DataEnvelope"]
    assert drops
    assert {r.causal["trace"] for r in drops} == {root_trace}


def test_duplicate_delivery_attributable_to_original_send():
    from repro.obs import HappensBeforeGraph

    sim, net, layer, inboxes, tracer = make_causal_layer(
        profile=LinkFaultProfile(duplicate=0.99))
    send_in_dispatch(sim, layer, tracer, 0, 1, "m")
    sim.run(until=2.0)
    assert inboxes[1] == ["m"]  # the layer suppressed the duplicate
    graph = HappensBeforeGraph.from_trace(sim.trace)
    dups = [e for e in graph.by_category("net.deliver") if e.dup]
    assert dups
    originals = [e for e in graph.by_category("net.deliver") if not e.dup]
    for dup in dups:
        parent = graph.event(dup.parent)
        assert parent is not None and parent.category == "net.send"
        # the duplicate's cause is the same send as some real delivery
        assert any(o.parent == dup.parent for o in originals)


def test_retry_delivery_carries_attempt_number():
    # Drop the first transmission deterministically (and nothing else):
    # the delivery that finally lands must be stamped attempt=2 and
    # still chain back to the originating dispatch.
    sim, net, layer, inboxes, tracer = make_causal_layer(
        config=ReliabilityConfig(timeout=0.1, max_retries=3))
    chaos = LinkChaos(sim)
    chaos.set_profile(LinkFaultProfile(drop=0.99))
    net.add_fault_interposer(chaos)
    root = send_in_dispatch(sim, layer, tracer, 0, 1, "m")
    sim.run(until=0.05)          # first attempt dropped
    chaos.set_profile(LinkFaultProfile())
    sim.run(until=2.0)           # retry goes through
    assert inboxes[1] == ["m"]
    delivers = [r for r in sim.trace.select("net.deliver")
                if r.data.get("src") == 0]
    assert delivers
    landed = delivers[-1]
    assert landed.causal.get("attempt") == 2
    from repro.obs import HappensBeforeGraph
    graph = HappensBeforeGraph.from_trace(sim.trace)
    chain = graph.chain(landed.causal["ev"])
    assert chain[0].id == root  # back to the dispatch that sent it


def test_service_broadcast_goes_through_the_reliable_layer():
    # ReliableLayer forwards unknown attributes to the raw network, so an
    # instance lookup of ``send_many`` finds Network.send_many and a
    # Service.broadcast would silently skip the ack/retry protocol.
    from dataclasses import dataclass

    from repro.chaos import reliable_transport
    from repro.statemachine import Cluster, Message, Service, msg_handler

    @dataclass
    class Note(Message):
        text: str

    class Chatter(Service):
        state_fields = ("heard",)

        def __init__(self, node_id):
            super().__init__(node_id)
            self.heard = []

        @msg_handler(Note)
        def on_note(self, src, msg):
            self.heard.append((src, msg.text))

    cluster = Cluster(4, Chatter, transport_wrapper=reliable_transport())
    cluster.start_all()
    cluster.service(0).broadcast([1, 2, 3], Note("all"))
    cluster.service(0).send(1, Note("one"))
    cluster.run()
    layer = cluster.transport
    assert layer.stats["sent"] == 4
    assert layer.stats["acked"] == 4
    assert layer.pending_count == 0
    assert cluster.service(1).heard == [(0, "all"), (0, "one")]
    assert cluster.service(2).heard == cluster.service(3).heard == [(0, "all")]
