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
from typing import Any, Callable, Dict, List

from ..model import NetworkModel, StateModel
from ..obs import MetricsRegistry
from ..statemachine import Message


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

    def wire_size(self) -> int:
        return 64 + deep_size(self.state) + deep_size(self.timers)


RUNTIME_MESSAGE_TYPES = (CheckpointMsg,)
# The exchange's counters, ``runtime.<key>{node=<id>}`` in the registry.
_COUNTS = ("checkpoints_sent", "checkpoints_received", "checkpoint_bytes_sent")


class CheckpointExchange:
    """One node's side of the checkpoint protocol (Figure 1's checkpoint
    exchange box), and the only code that builds or reads the messages
    above.

    Sending: every ``checkpoint_period`` ``trigger`` runs, and it calls
    :meth:`broadcast`: one full checkpoint, stamped with the next epoch,
    goes into the state model and out to every neighbor.  Receiving:
    checkpoints go into the state model, and with ``passive_measurement``
    every ``sent_at`` stamp becomes a latency sample in the network
    model (disable it to freeze the model after bootstrap — the A4
    ablation).

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
        self.epoch = 0

    def start(self) -> None:
        """Record the initial checkpoint and begin the periodic broadcast."""
        node = self.node
        self.record_own_checkpoint()
        if self.checkpoint_period > 0:
            node.sim.every(self.checkpoint_period,
                           lambda: self.trigger() if node.is_up else None,
                           math.inf, f"cb.checkpoint:{node.node_id}")

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
        """Take a checkpoint and send it to every neighbor."""
        node = self.node
        now = node.sim.now
        self.epoch += 1
        # Snapshot the service exactly once per broadcast: the same
        # checkpoint is stored in the local state model and carried by
        # every outbound message, and every receiver stores it as is.
        state = node.service.checkpoint()
        timers = self.own_timers()
        self.state_model.update(node.node_id, self.epoch, now, state, timers=timers)
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

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def receive(self, src: int, msg: CheckpointMsg) -> None:
        """Consume a neighbor's checkpoint: store it in the state model,
        and with ``passive_measurement`` take its ``sent_at`` stamp as a
        latency sample."""
        self._counts["checkpoints_received"].inc()
        if self.passive_measurement:
            self.network_model.observe_latency(
                src, self.node.node_id, max(0.0, self.node.sim.now - msg.sent_at),
            )
        self.state_model.update(
            msg.sender, msg.epoch, msg.taken_at, msg.state, timers=msg.timers,
        )


__all__ = [
    "CheckpointExchange",
    "CheckpointMsg",
    "RUNTIME_MESSAGE_TYPES",
]
