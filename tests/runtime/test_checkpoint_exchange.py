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
    CheckpointExchange,
    CheckpointMsg,
)
from repro.statemachine import Cluster, InboundInterposer, Service

from .test_controller import factory


class ExchangeOnly(InboundInterposer):
    """Routes a node's runtime messages to its exchange."""

    def __init__(self, exchange):
        self.exchange = exchange

    def on_inbound(self, node, src, msg):
        if isinstance(msg, RUNTIME_MESSAGE_TYPES):
            self.exchange.receive(src, msg)
            return False
        return True


def attach(node, passive=True):
    exchange = CheckpointExchange(
        node, StateModel(node.node_id), NetworkModel(), MetricsRegistry(),
        trigger=lambda: exchange.broadcast(),
        checkpoint_period=0.0, passive_measurement=passive,
    )
    node.inbound_interposers.append(ExchangeOnly(exchange))
    return exchange


def count(exchange, key):
    """The exchange's ``runtime.<key>`` counter in its registry."""
    return exchange.metrics.counter(f"runtime.{key}", node=exchange.node.node_id).value


def exchanges(passive=True):
    """A started 3-node cluster with one exchange per node; no periodic
    broadcasts, so each test drives them."""
    cluster = Cluster(3, factory, seed=3)
    attached = [attach(node, passive) for node in cluster.nodes]
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


@pytest.mark.parametrize("passive", [True, False])
def test_checkpoint_stamps_feed_latency_only_with_passive_measurement(passive):
    # The model starts from 1 s links; the network delivers in ~0.05 s.
    # Each received stamp pulls the estimate down.  With passive
    # measurement off (the A4 ablation) the bootstrapped model stays as
    # it was.
    cluster, ex = exchanges(passive=passive)
    model = ex[1].network_model
    model.bootstrap_from_topology(full_mesh(3, latency=1.0))
    estimates = [model.latency(0, 1)]
    for until in (0.5, 1.0):
        ex[0].broadcast()
        cluster.run(until=until)
        estimates.append(model.latency(0, 1))
    assert count(ex[1], "checkpoints_received") == 2
    if passive:
        assert estimates[0] > estimates[1] > estimates[2]
    else:
        assert estimates == [1.0, 1.0, 1.0]


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
    ex = [attach(node) for node in cluster.nodes]
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
