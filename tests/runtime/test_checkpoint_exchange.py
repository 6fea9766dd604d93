"""CheckpointExchange on its own: no runtime, explorer or predictor.

Each node gets an exchange, its own state and network models, a metrics
registry to count into, and a minimal interposer that hands it the
runtime's messages — the part of ``CrystalBallRuntime`` the exchange
needs.
"""

import pytest

from repro.model import NetworkModel, StateModel
from repro.net import full_mesh
from repro.obs import MetricsRegistry
from repro.runtime.checkpoints import (
    RUNTIME_MESSAGE_TYPES,
    CheckpointAckMsg,
    CheckpointDeltaMsg,
    CheckpointExchange,
    CheckpointMsg,
)
from repro.statemachine import Cluster, InboundInterposer, Service

from .test_controller import factory


class ExchangeOnly(InboundInterposer):
    """Routes a node's runtime messages and dispatches to its exchange."""

    def __init__(self, exchange, drop_acks_from=()):
        self.exchange = exchange
        self.drop_acks_from = set(drop_acks_from)

    def on_inbound(self, node, src, msg):
        if isinstance(msg, CheckpointAckMsg) and src in self.drop_acks_from:
            return False  # the ack is lost on the way
        if isinstance(msg, RUNTIME_MESSAGE_TYPES):
            self.exchange.receive(src, msg)
            return False
        return True

    def after_dispatch(self, node):
        self.exchange.after_dispatch()


def attach(node, deltas, on_change, drop_acks_from=(), passive=True):
    exchange = CheckpointExchange(
        node, StateModel(node.node_id), NetworkModel(), MetricsRegistry(),
        trigger=lambda: exchange.broadcast(),
        checkpoint_period=0.0, passive_measurement=passive,
        deltas=deltas, on_change=on_change,
    )
    node.inbound_interposers.append(ExchangeOnly(exchange, drop_acks_from))
    return exchange


def count(exchange, key):
    """The exchange's ``runtime.<key>`` counter in its registry."""
    return exchange.metrics.counter(f"runtime.{key}", node=exchange.node.node_id).value


def exchanges(deltas=False, on_change=False, drop_acks=None, passive=True):
    """A started 3-node cluster with one exchange per node; no periodic
    broadcasts, so each test drives them.  ``drop_acks`` maps a node to
    the peers whose acks it never receives."""
    cluster = Cluster(3, factory, seed=3)
    drop_acks = drop_acks or {}
    attached = [
        attach(node, deltas, on_change, drop_acks.get(node.node_id, ()), passive)
        for node in cluster.nodes
    ]
    cluster.start_all()
    for exchange in attached:
        exchange.start()
    return cluster, attached


def test_full_checkpoint_reaches_peer_state_model():
    cluster, ex = exchanges()
    cluster.run(until=1.5)  # node 0 received a Bump at ~1.05: value 1
    ex[0].broadcast()
    cluster.run(until=2.0)
    for peer in (1, 2):
        stored = ex[peer].state_model.get(0)
        assert (stored.epoch, stored.state) == (1, {"value": 1})
        assert count(ex[peer], "checkpoints_received") == 1
    assert count(ex[0], "checkpoints_sent") == 2
    # The stamp became a latency sample (the full-mesh default is 0.05 s).
    assert 0.01 < ex[1].network_model.latency(0, 1) < 0.2


@pytest.mark.parametrize("deltas", [False, True])
@pytest.mark.parametrize("passive", [True, False])
def test_checkpoint_stamps_feed_latency_only_with_passive_measurement(deltas, passive):
    # The model starts from 1 s links; the network delivers in ~0.05 s.
    # Each received stamp, a delta's as much as a full's, pulls the
    # estimate down.  With passive measurement off (the A4 ablation) the
    # bootstrapped model stays as it was.
    cluster, ex = exchanges(deltas=deltas, passive=passive)
    model = ex[1].network_model
    model.bootstrap_from_topology(full_mesh(3, latency=1.0))
    estimates = [model.latency(0, 1)]
    for until in (0.5, 1.0):
        ex[0].broadcast()
        cluster.run(until=until)
        estimates.append(model.latency(0, 1))
    assert count(ex[0], "delta_checkpoints_sent") == (2 if deltas else 0)
    assert count(ex[1], "checkpoints_received") == 2
    if passive:
        assert estimates[0] > estimates[1] > estimates[2]
    else:
        assert estimates == [1.0, 1.0, 1.0]


def test_delta_sent_once_the_ack_has_arrived():
    cluster, ex = exchanges(deltas=True)
    ex[0].broadcast()  # rotation: a full each, acks requested
    assert count(ex[0], "full_checkpoints_sent") == 2
    cluster.run(until=1.5)
    assert count(ex[1], "checkpoint_acks_sent") == 1
    assert ex[1].baseline(0).epoch == 1
    ex[0].broadcast()
    assert count(ex[0], "delta_checkpoints_sent") == 2
    assert count(ex[0], "resync_fulls_sent") == 0
    cluster.run(until=2.0)
    patched = ex[1].state_model.get(0)
    assert (patched.epoch, patched.state) == (2, {"value": 1})


def test_dropped_ack_leads_to_a_resync_full():
    cluster, ex = exchanges(deltas=True, drop_acks={0: {2}})
    ex[0].broadcast()
    cluster.run(until=0.5)
    assert count(ex[2], "checkpoint_acks_sent") == 1  # sent, never received
    ex[0].broadcast()
    # Peer 1 acked and gets a delta; peer 2 gets the full again.
    assert count(ex[0], "delta_checkpoints_sent") == 1
    assert count(ex[0], "resync_fulls_sent") == 1
    assert count(ex[0], "full_checkpoints_sent") == 3
    cluster.run(until=1.0)
    assert ex[2].state_model.get(0).epoch == 2
    assert ex[2].baseline(0).epoch == 2


def test_delta_against_a_missing_base_is_ignored():
    cluster, ex = exchanges(deltas=True)
    ex[0].broadcast()
    cluster.run(until=0.5)
    stale = CheckpointDeltaMsg(sender=0, epoch=3, base_epoch=2, taken_at=0.5,
                               sent_at=0.5, changed={"value": 9})
    unknown = CheckpointDeltaMsg(sender=2, epoch=1, base_epoch=0, taken_at=0.5,
                                 sent_at=0.5, changed={"value": 9})
    ex[1].receive(0, stale)
    ex[1].receive(2, unknown)
    assert count(ex[1], "deltas_ignored") == 2
    assert ex[1].state_model.get(0).epoch == 1
    assert ex[1].state_model.get(2) is None


def test_state_change_triggers_a_broadcast():
    cluster, ex = exchanges(on_change=True)
    cluster.run(until=0.5)  # no Bump delivered yet: nothing changed
    assert all(count(e, "change_broadcasts") == 0 for e in ex)
    cluster.run(until=1.5)  # each node received one Bump
    for e in ex:
        assert count(e, "change_broadcasts") == 1
        assert e.epoch == 1
    # Node 1's new value reached its peers with no periodic exchange.
    assert ex[2].state_model.get(1).state == {"value": 1}


class Appender(Service):
    """State held in a mutable container, which a stored copy must not
    follow."""

    state_fields = ("log",)

    def __init__(self, node_id):
        super().__init__(node_id)
        self.log = []


def test_model_stores_one_copy_of_live_state_and_received_states_as_sent():
    # The state model stores what it is handed.  The exchange hands it a
    # checkpoint of the live service (the one copy), and a receiver the
    # checkpoint a message carried, the same object.
    cluster = Cluster(2, Appender, seed=3)
    ex = [attach(node, deltas=False, on_change=False) for node in cluster.nodes]
    cluster.start_all()
    for exchange in ex:
        exchange.start()
    cluster.run(until=0.5)  # past the checkpoint start() recorded
    live = cluster.service(0)
    live.log.append(1)
    ex[0].record_own_checkpoint()
    recorded = ex[0].state_model.get(0).state
    live.log.append(2)
    assert recorded == {"log": [1]}
    ex[0].broadcast()
    sent = ex[0].state_model.get(0).state
    live.log.append(3)
    assert sent == {"log": [1, 2]} and recorded == {"log": [1]}
    cluster.run(until=1.5)
    assert ex[1].state_model.get(0).state is sent
    message = CheckpointMsg(sender=0, epoch=9, taken_at=2.0, sent_at=2.0, state={"log": [4]})
    ex[1].receive(0, message)
    assert ex[1].state_model.get(0).state is message.state
