"""One-step conformance: a live dispatch, stepped in the sandbox, does
what it did live.

The paper's central move is that the same handler code runs live and
inside consequence prediction.  Here every live dispatch of four small
runs is captured as its ``DispatchRecord`` and stepped through
``Explorer.sandbox_step`` — the step the runtime's choice replay uses —
from its pre-dispatch checkpoint, with its recorded choices as the
script and the clock the node saw.  The sandbox must reach the same
state, send the same messages and arm and cancel the same timers.

A dispatch that draws from ``ctx.random`` is excluded and counted: the
sandbox hands out a fresh derived stream, not the node's (a permitted
divergence, see DESIGN.md).  Guard drift takes the same
``service.unhandled`` branch on a live node and in the explorer.
"""

from dataclasses import dataclass

import pytest

from repro.apps.dissemination import DisseminationConfig, make_exposed_swarm_factory, make_views
from repro.apps.gossip import GossipConfig, make_exposed_gossip_factory
from repro.apps.paxos import PaxosConfig, make_paxos_factory
from repro.apps.randtree import RandTreeConfig, make_exposed_factory
from repro.choice import RandomResolver
from repro.mc import DeliverAction, Explorer, InFlightMessage, WorldState
from repro.statemachine import Cluster, Message, Service, digest, freeze, msg_handler

MIN_COMPARED = 300


def _randtree():
    return 9, make_exposed_factory(RandTreeConfig()), 20.0


def _gossip():
    return 8, make_exposed_gossip_factory(GossipConfig(n=8, rumor_count=4)), 20.0


def _dissemination():
    config = DisseminationConfig(n=6, block_count=8, seeds=(0,), view_size=5)
    return 6, make_exposed_swarm_factory(config, make_views(6, 5, 2)), 60.0


def _paxos():
    config = PaxosConfig(n=3, requests_per_node=3, request_interval=0.5)
    return 3, make_paxos_factory(config), 30.0


FAMILIES = {
    "randtree": _randtree,
    "gossip": _gossip,
    "dissemination": _dissemination,
    "paxos": _paxos,
}


class _Conformance:
    """Spies on one live node and checks each of its dispatches."""

    def __init__(self, node, explorer, tally):
        self.node, self.explorer, self.tally = node, explorer, tally
        self.sent, self.armed, self.cancelled = [], [], []
        self.drew_random = False
        node.capture_dispatch = True
        ctx, service = node.service.ctx, node.service
        send, broadcast = ctx.send, ctx.broadcast
        set_timer, cancel_timer, stream = ctx.set_timer, ctx.cancel_timer, ctx.random

        def spy_send(dst, msg):
            self.sent.append((dst, freeze(msg)))
            return send(dst, msg)

        def spy_broadcast(dsts, msg):
            dsts = list(dsts)
            self.sent.extend((dst, freeze(msg)) for dst in dsts)
            return broadcast(dsts, msg)

        def spy_set_timer(name, delay, payload=None):
            self.armed.append((name, delay, freeze(payload)))
            set_timer(name, delay, payload)

        def spy_cancel_timer(name):
            self.cancelled.append(name)
            cancel_timer(name)

        def spy_random(name):
            self.drew_random = True
            return stream(name)

        ctx.send, ctx.broadcast = spy_send, spy_broadcast
        ctx.set_timer, ctx.cancel_timer, ctx.random = spy_set_timer, spy_cancel_timer, spy_random
        service.deliver = self._checked(service.deliver)
        service.fire_timer = self._checked(service.fire_timer)

    def _checked(self, dispatch):
        def checked(*args):
            record, node = self.node.current_dispatch, self.node
            now = node.sim.now + node.clock_skew
            self.sent, self.armed, self.cancelled = [], [], []
            self.drew_random = False
            handled = dispatch(*args)
            if self.drew_random:
                self.tally["excluded"] += 1
            else:
                self._compare(record, now)
            return handled
        return checked

    def _compare(self, record, now):
        checkpoint, effects, _ = self.explorer.sandbox_step(
            self.node.node_id, record.checkpoint, record.event, now, list(record.choices))
        where = f"node {self.node.node_id}: {record.event.describe()}"
        assert digest(checkpoint) == self.node.service.state_digest(), where
        assert [(dst, freeze(msg)) for dst, msg in effects.sent] == self.sent, where
        armed = [(name, delay, freeze(payload)) for name, delay, payload in effects.timers_set]
        assert armed == self.armed, where
        assert effects.timers_cancelled == self.cancelled, where
        self.tally["compared"] += 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_live_dispatch_steps_identically_in_sandbox(family):
    n, factory, until = FAMILIES[family]()
    cluster = Cluster(n, factory, seed=1, resolver_factory=lambda nid: RandomResolver(1))
    explorer = Explorer(factory, rng_seed=cluster.sim.rng.root_seed)
    tally = {"compared": 0, "excluded": 0}
    for node in cluster.nodes:
        _Conformance(node, explorer, tally)
    cluster.start_all()
    cluster.run(until=until)
    print(f"{family}: {tally['compared']} compared, {tally['excluded']} excluded (ctx.random)")
    assert tally["compared"] >= MIN_COMPARED


# ----------------------------------------------------------------------
# Guard drift: a handler that no longer applies takes one branch
# ----------------------------------------------------------------------

@dataclass
class Poke(Message):
    n: int


class Latch(Service):
    """Accepts pokes only while open; the first poke closes it."""

    state_fields = ("open", "pokes")

    def __init__(self, node_id):
        super().__init__(node_id)
        self.open = True
        self.pokes = 0

    def on_init(self):
        if self.node_id == 0:
            self.send(1, Poke(n=1))
            self.send(1, Poke(n=2))

    @msg_handler(Poke, guard=lambda svc, src, msg: svc.open)
    def on_poke(self, src, msg):
        self.pokes += 1
        self.open = False


def test_guard_drift_in_explorer_consumes_message_and_keeps_state():
    closed = Latch(1)
    closed.open = False
    world = WorldState(
        node_states={0: Latch(0).checkpoint(), 1: closed.checkpoint()},
        inflight=[InFlightMessage(0, 1, Poke(n=1))],
    )
    # Enumerated while the latch was open; stepped after it closed.
    action = DeliverAction(src=0, dst=1, msg=Poke(n=1), handler="on_poke")
    successors = Explorer(Latch).successors(world, action)
    assert len(successors) == 1
    assert successors[0].inflight == []
    assert successors[0].state_of(1) == world.state_of(1)


def test_guard_drift_on_live_node_records_unhandled():
    cluster = Cluster(2, Latch, seed=1)
    cluster.start_all()
    cluster.run(until=2)
    assert cluster.service(1).pokes == 1
    records = cluster.sim.trace.select("service.unhandled")
    assert [(r.data["msg"], r.data["src"]) for r in records] == [("Poke", 0)]
