"""The runtime's checkpoint protocol: its messages and the one class
that sends and consumes them.

The CrystalBall controller "periodically collects a consistent set of
checkpoints from each of the node's neighbors" (Section 2).  In this
reproduction each node's :class:`CheckpointExchange` broadcasts
epoch-stamped checkpoints of its service state to its neighborhood;
receiving exchanges consume them (they never reach the application) and
fold them into their state models.  Checkpoint messages double as
passive latency measurements via their ``sent_at`` stamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..model import NeighborCheckpoint, NetworkModel, StateModel
from ..obs import MetricsRegistry
from ..statemachine import Message
from ..statemachine.serialization import freeze

# With checkpoint deltas, a full checkpoint (the new baseline) goes out
# after this many deltas.
_FULL_CHECKPOINT_EVERY = 5


def deep_size(value: Any) -> int:
    """Recursive wire-size estimate of a plain-data value in bytes."""
    if isinstance(value, (str, bytes)):
        return len(value) + 4
    if isinstance(value, dict):
        return 8 + sum(deep_size(k) + deep_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(deep_size(v) for v in value)
    return 8


@dataclass
class CheckpointMsg(Message):
    """One node's epoch-stamped service checkpoint.

    ``timers`` lists the sender's pending timers as ``(name, delay,
    payload)`` tuples — in Mace, timer state is part of a service's
    checkpoint, and consequence prediction needs neighbors' timers to
    see the actions they may take next.
    """

    sender: int
    epoch: int
    taken_at: float
    sent_at: float
    state: Dict[str, Any] = field(default_factory=dict)
    timers: list = field(default_factory=list)
    # Delta mode: the receiver should adopt this full checkpoint as its
    # delta baseline and acknowledge it (see CheckpointAckMsg).
    ack_requested: bool = False

    def wire_size(self) -> int:
        return 64 + deep_size(self.state) + deep_size(self.timers)


@dataclass
class CheckpointDeltaMsg(Message):
    """Only the state fields that changed since ``base_epoch``.

    Section 3.3.2: "the acceptable amount of communication overhead
    limits the rate at which information can be exchanged" — delta
    encoding lets checkpoints flow at a higher rate for the same
    bandwidth.  A receiver that does not hold the sender's
    ``base_epoch`` ignores the delta and resynchronizes at the next
    full checkpoint.
    """

    sender: int
    epoch: int
    base_epoch: int
    taken_at: float
    sent_at: float
    changed: Dict[str, Any] = field(default_factory=dict)
    timers: list = field(default_factory=list)

    def wire_size(self) -> int:
        return 72 + deep_size(self.changed) + deep_size(self.timers)


@dataclass
class CheckpointAckMsg(Message):
    """Acknowledges adoption of a full checkpoint as a delta baseline.

    Delta checkpoints are diffed against the sender's last *acked*
    full checkpoint, so a sender never diffs against state a receiver
    provably lacks: until the ack for the current baseline arrives,
    that receiver keeps getting fulls (the resync fallback).
    """

    sender: int
    epoch: int

    def wire_size(self) -> int:
        return 64


RUNTIME_MESSAGE_TYPES = (CheckpointMsg, CheckpointDeltaMsg, CheckpointAckMsg)
# The exchange's counters, ``runtime.<key>{node=<id>}`` in the registry.
_COUNTS = (
    "checkpoints_sent", "checkpoints_received", "checkpoint_bytes_sent",
    "change_broadcasts", "full_checkpoints_sent", "delta_checkpoints_sent",
    "resync_fulls_sent", "checkpoint_acks_sent", "deltas_ignored",
)


class CheckpointExchange:
    """One node's side of the checkpoint protocol (Figure 1's checkpoint
    exchange box), and the only code that builds or reads the messages
    above.

    Sending: every ``checkpoint_period`` — and with ``on_change`` after
    every dispatch that moved the service's state digest — ``trigger``
    runs, and it calls :meth:`broadcast`: one checkpoint, stamped with
    the next epoch, goes into the state model and out to every neighbor.
    Receiving: checkpoints go into the state model, and with
    ``passive_measurement`` every ``sent_at`` stamp becomes a latency
    sample in the network model (disable it to freeze the model after
    bootstrap — the A4 ablation).

    With ``deltas`` (Section 3.3.2's communication-overhead limit) each
    broadcast is diffed against the last full checkpoint each peer
    *acknowledged*, and every ``_FULL_CHECKPOINT_EVERY`` deltas a full
    goes out as the new baseline.  A peer whose ack is outstanding keeps
    receiving fulls (the resync fallback), so a delta is never diffed
    against state the receiver provably lacks; a receiver that lacks a
    delta's base ignores it (``deltas_ignored``).

    The runtime builds the exchange and shares its models and metrics
    registry with it; ``trigger`` is the runtime's ``broadcast_checkpoint``,
    so every broadcast enters through the runtime.  The exchange writes
    the ``_COUNTS`` counters, which the runtime's ``stats`` reads.
    """

    def __init__(
        self,
        node: Any,
        state_model: StateModel,
        network_model: NetworkModel,
        metrics: MetricsRegistry,
        trigger: Callable[[], None],
        checkpoint_period: float,
        passive_measurement: bool,
        deltas: bool,
        on_change: bool,
    ) -> None:
        self.node = node
        self.state_model = state_model
        self.network_model = network_model
        self.metrics = metrics
        self._counts = {key: metrics.counter(f"runtime.{key}", node=node.node_id)
                        for key in _COUNTS}
        self.trigger = trigger
        self.checkpoint_period = checkpoint_period
        self.passive_measurement = passive_measurement
        self.deltas = deltas
        self.on_change = on_change
        self.epoch = 0
        # Sender side of the delta protocol: the current baseline's
        # epoch (-1 before the first) and frozen fields, and the epoch
        # of the baseline each peer last acked.
        self._base_epoch = -1
        self._base_frozen: Dict[str, Any] = {}
        self._deltas_since_full = 0
        self._peer_acked: Dict[int, int] = {}
        # Receiver side: the last acked full per sender, which its
        # deltas patch.  It aliases the state model's stored checkpoint,
        # which is never mutated (``update`` replaces entries wholesale).
        self._baselines: Dict[int, NeighborCheckpoint] = {}
        self._last_digest: Optional[str] = None
        self._receivers = {
            CheckpointMsg: self._on_full,
            CheckpointDeltaMsg: self._on_delta,
            CheckpointAckMsg: self._on_ack,
        }

    def start(self) -> None:
        """Record the initial checkpoint and begin the periodic tasks."""
        node = self.node
        self.record_own_checkpoint()
        if self.checkpoint_period > 0:
            node.sim.every(self.checkpoint_period,
                           lambda: self.trigger() if node.is_up else None,
                           math.inf, f"cb.checkpoint:{node.node_id}")
        if self.on_change:
            self._last_digest = node.service.state_digest()

    def neighbors(self) -> List[int]:
        """The neighborhood to exchange checkpoints with.

        The service's own ``neighbors()`` method (protocol knowledge,
        typically O(log n) in scalable systems), else every other node
        in the topology (the paper's full-global-knowledge mode).
        """
        me = self.node.node_id
        service_neighbors = getattr(self.node.service, "neighbors", None)
        if callable(service_neighbors):
            return [p for p in service_neighbors() if p != me]
        return [p for p in self.node.network.topology.node_ids if p != me]

    def own_timers(self) -> list:
        now = self.node.sim.now
        return [
            (name, max(0.0, deadline - now), payload)
            for name, deadline, payload in self.node.pending_timers()
        ]

    def record_own_checkpoint(self) -> None:
        """Store the live local state under the current epoch."""
        node = self.node
        # The model stores what it is handed, so this checkpoint() is
        # the one copy of the live state.
        self.state_model.update(
            node.node_id, self.epoch, node.sim.now, node.service.checkpoint(),
            timers=self.own_timers(),
        )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def broadcast(self) -> None:
        """Take a checkpoint and send it (full or delta) to every neighbor."""
        node = self.node
        now = node.sim.now
        self.epoch += 1
        # Snapshot the service exactly once per broadcast: the same
        # checkpoint is stored in the local state model and carried by
        # every outbound message, and every receiver stores it as is.
        state = node.service.checkpoint()
        timers = self.own_timers()
        self.state_model.update(node.node_id, self.epoch, now, state, timers=timers)
        if self.deltas:
            self._send_deltas(now, state, timers)
            return
        message = CheckpointMsg(
            sender=node.node_id, epoch=self.epoch,
            taken_at=now, sent_at=now, state=state, timers=timers,
        )
        peers = self.neighbors()
        size = message.wire_size()
        # Batched fan-out: one queue insertion per distinct arrival time
        # instead of one per peer (see Network.send_many).
        # NOTE: on a forwarding wrapper (ReliableLayer) this instance
        # lookup finds the RAW network's send_many, so full checkpoints
        # bypass the at-least-once layer.  Node.broadcast_out asks the
        # transport's class instead; this one is left as is on purpose,
        # because routing checkpoints through the wrapper changes A7's
        # reliable-variant traffic and its recorded numbers.
        node.network.send_many(node.node_id, peers, message, size_bytes=size)
        self._counts["checkpoints_sent"].inc(len(peers))
        self._counts["checkpoint_bytes_sent"].inc(size * len(peers))

    def _send_deltas(self, now: float, state: Dict[str, Any], timers: list) -> None:
        rotate = self._base_epoch < 0 or self._deltas_since_full >= _FULL_CHECKPOINT_EVERY
        if rotate:
            # This broadcast is the new baseline every peer must ack
            # before it can receive deltas again.
            self._base_frozen = {key: freeze(value) for key, value in state.items()}
            self._base_epoch = self.epoch
            self._deltas_since_full = 0
            changed = None
        else:
            self._deltas_since_full += 1
            frozen_base = self._base_frozen
            changed = {
                key: value for key, value in state.items()
                if freeze(value) != frozen_base.get(key)
            }
        me = self.node.node_id
        full = delta = None
        for peer in self.neighbors():
            if rotate or self._peer_acked.get(peer) != self._base_epoch:
                # The peer has not acked the current baseline (or a
                # rotation just happened): it gets a full and is asked
                # to adopt it.  Off-rotation fulls are the resync
                # fallback for missed baselines.
                if full is None:
                    full = CheckpointMsg(
                        sender=me, epoch=self.epoch, taken_at=now, sent_at=now,
                        state=state, timers=timers, ack_requested=True,
                    )
                self._send_checkpoint(peer, full)
                self._counts["full_checkpoints_sent"].inc()
                if not rotate:
                    self._counts["resync_fulls_sent"].inc()
            else:
                if delta is None:
                    delta = CheckpointDeltaMsg(
                        sender=me, epoch=self.epoch, base_epoch=self._base_epoch,
                        taken_at=now, sent_at=now, changed=changed, timers=timers,
                    )
                self._send_checkpoint(peer, delta)
                self._counts["delta_checkpoints_sent"].inc()
        if rotate:
            # A peer's ack from a *previous* baseline epoch must not
            # qualify it for deltas against this one; fulls just went
            # out, so acks will refresh the map.
            self._peer_acked = {
                peer: epoch for peer, epoch in self._peer_acked.items()
                if epoch == self._base_epoch
            }

    def _send_checkpoint(self, peer: int, message: Any) -> None:
        size = message.wire_size()
        self.node.network.send(self.node.node_id, peer, message, size_bytes=size)
        self._counts["checkpoints_sent"].inc()
        self._counts["checkpoint_bytes_sent"].inc(size)

    def after_dispatch(self) -> None:
        """With ``on_change``, broadcast when a dispatch moved the local
        state.  This closes most of the staleness window that periodic
        exchange leaves open — ``bench_a1_staleness`` measures it."""
        if not self.on_change or not self.node.is_up:
            return
        digest_now = self.node.service.state_digest()
        if digest_now == self._last_digest:
            return
        self._last_digest = digest_now
        self._counts["change_broadcasts"].inc()
        self.trigger()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def receive(self, src: int, msg: Any) -> None:
        """Consume one of the runtime's messages."""
        self._receivers[type(msg)](src, msg)

    def baseline(self, sender: int) -> Optional[NeighborCheckpoint]:
        """The full checkpoint ``sender``'s deltas patch (or ``None``)."""
        return self._baselines.get(sender)

    def _observe(self, src: int, sent_at: float) -> None:
        if self.passive_measurement:
            self.network_model.observe_latency(
                src, self.node.node_id, max(0.0, self.node.sim.now - sent_at),
            )

    def _on_full(self, src: int, msg: CheckpointMsg) -> None:
        self._counts["checkpoints_received"].inc()
        self._observe(src, msg.sent_at)
        self.state_model.update(
            msg.sender, msg.epoch, msg.taken_at, msg.state, timers=msg.timers,
        )
        if not msg.ack_requested:
            return
        # Adopt this full as the sender's delta baseline and acknowledge
        # it — only if it actually stuck: a reordered stale full is
        # neither adopted nor acked, and a baseline never moves back.
        stored = self.state_model.get(msg.sender)
        current = self._baselines.get(msg.sender)
        if stored.epoch != msg.epoch or (current is not None and current.epoch > msg.epoch):
            return
        self._baselines[msg.sender] = stored
        me = self.node.node_id
        self.node.network.send(
            me, src, CheckpointAckMsg(sender=me, epoch=msg.epoch), size_bytes=64,
        )
        self._counts["checkpoint_acks_sent"].inc()

    def _on_delta(self, src: int, msg: CheckpointDeltaMsg) -> None:
        self._counts["checkpoints_received"].inc()
        self._observe(src, msg.sent_at)
        base = self._baselines.get(msg.sender)
        # A sender the state model forgot has no baseline either.
        if (base is None or base.epoch != msg.base_epoch
                or self.state_model.get(msg.sender) is None):
            # We lack the delta's base: skip; the sender keeps sending
            # fulls until our baseline ack reaches it.
            self._counts["deltas_ignored"].inc()
            return
        patched = dict(base.state)
        patched.update(msg.changed)
        self.state_model.update(
            msg.sender, msg.epoch, msg.taken_at, patched, timers=msg.timers,
        )

    def _on_ack(self, src: int, msg: CheckpointAckMsg) -> None:
        if msg.epoch > self._peer_acked.get(msg.sender, -1):
            self._peer_acked[msg.sender] = msg.epoch


__all__ = [
    "CheckpointExchange",
    "CheckpointMsg",
    "CheckpointDeltaMsg",
    "CheckpointAckMsg",
    "RUNTIME_MESSAGE_TYPES",
]
