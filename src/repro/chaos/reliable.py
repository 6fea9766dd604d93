"""At-least-once delivery over the chaotic transport.

The base ``Network`` models TCP-like reliability as *delay* (loss turns
into retransmission latency), which the chaos layer deliberately
subverts: injected drops, duplicates, and flaps lose messages outright.
:class:`ReliableLayer` restores end-to-end delivery on top — the
classic ack/retry protocol:

* every data payload rides in a :class:`DataEnvelope` with a per-sender
  sequence number;
* the receiver acks each envelope (acks are themselves unreliable —
  retries cover ack loss) and suppresses duplicates by ``(src, seq)``;
* the sender retransmits on timeout with exponential backoff until
  acked or ``max_retries`` is exhausted.

The layer presents the same ``attach``/``send`` surface as ``Network``
(everything else delegates), so a cluster can opt in by wrapping its
transport — services and the CrystalBall runtime are untouched.  All
timers run on the deterministic simulator; a run with the reliability
layer is as replayable as one without.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..net.transport import DEFAULT_MESSAGE_BYTES

ENVELOPE_OVERHEAD_BYTES = 40
ACK_SIZE_BYTES = 64


@dataclass
class DataEnvelope:
    """A payload wrapped for at-least-once delivery."""

    seq: int
    payload: Any


@dataclass
class AckEnvelope:
    """Acknowledgement of ``seq`` from the receiver."""

    seq: int


@dataclass(frozen=True)
class ReliabilityConfig:
    """Retry policy for :class:`ReliableLayer`."""

    timeout: float = 0.3
    backoff: float = 2.0
    max_retries: int = 6

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")


@dataclass
class _Pending:
    payload: Any
    size_bytes: int
    attempts: int = 0
    # The live retry/lastwait timer for this send; cancelled on ack so
    # the simulator queue does not accumulate dead retry events.
    timer: Optional[Any] = None
    # Causal event of the dispatch that issued the send (when causal
    # tracing is on): retransmissions re-enter this scope, so every
    # attempt shares the original trace id and cause.
    cause: Optional[int] = None


class ReliableLayer:
    """Ack/retry/dedup adapter with the ``Network`` surface.

    Dedup state is kept in the layer (a stable "NIC" below the service),
    so it survives node crashes — recovered nodes do not re-deliver old
    messages even after amnesia.  Unreliable (datagram) sends pass
    through unwrapped.
    """

    def __init__(
        self,
        network,
        config: Optional[ReliabilityConfig] = None,
    ) -> None:
        self._network = network
        self.config = config if config is not None else ReliabilityConfig()
        self._next_seq: Dict[int, int] = {}
        self._pending: Dict[Tuple[int, int, int], _Pending] = {}
        self._seen: Dict[int, Set[Tuple[int, int]]] = {}
        self._counts = dict.fromkeys(
            ("sent", "acked", "retransmissions", "duplicates_suppressed", "gave_up"), 0)

    @property
    def stats(self) -> Dict[str, int]:
        """The protocol's counts so far."""
        return dict(self._counts)

    def __getattr__(self, name: str) -> Any:
        # Everything not overridden (liveness, topology, sim, partitions,
        # break_connection, counters, ...) is the raw network's.
        return getattr(self._network, name)

    # ------------------------------------------------------------------
    # Endpoint management
    # ------------------------------------------------------------------

    def attach(
        self,
        node_id: int,
        on_message: Callable[[int, int, Any], None],
        on_broken: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Attach with ack/dedup handling wrapped around ``on_message``."""
        self._seen.setdefault(node_id, set())

        def wrapped(src: int, dst: int, payload: Any) -> None:
            self._on_message(on_message, src, dst, payload)

        self._network.attach(node_id, wrapped, on_broken)

    def detach(self, node_id: int) -> None:
        self._network.detach(node_id)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        size_bytes: int = DEFAULT_MESSAGE_BYTES,
        reliable: bool = True,
    ) -> bool:
        """Send with at-least-once semantics (``reliable=False`` passes
        through as a plain datagram)."""
        if not reliable:
            return self._network.send(src, dst, payload, size_bytes=size_bytes,
                                      reliable=False)
        seq = self._next_seq.get(src, 0)
        self._next_seq[src] = seq + 1
        key = (src, dst, seq)
        pending = _Pending(payload=payload, size_bytes=size_bytes)
        tracer = self._network.sim.causal
        if tracer is not None:
            pending.cause = tracer.current_event_id()
        self._pending[key] = pending
        self._counts["sent"] += 1
        self._transmit(key)
        return True

    def _transmit(self, key: Tuple[int, int, int]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return
        src, dst, seq = key
        if not self._network.liveness.is_up(src):
            # The sender crashed: its outbox dies with it.  Application
            # protocols re-issue requests after recovery.
            self._pending.pop(key, None)
            self._network.sim.trace.record(
                self._network.sim.now, "reliable.abandoned", node=src, dst=dst, seq=seq,
            )
            return
        pending.attempts += 1
        if pending.attempts > 1:
            self._counts["retransmissions"] += 1
        tracer = self._network.sim.causal
        if tracer is None:
            self._transmit_wire(key, pending)
        else:
            # Retransmissions re-enter the original send's causal scope:
            # same trace id and cause, a fresh attempt number — so a
            # late duplicate is attributable to the send that mattered.
            with tracer.resumed(pending.cause, attempt=pending.attempts):
                self._transmit_wire(key, pending)
        if pending.attempts > self.config.max_retries:
            # This was the last shot; if the ack never comes, give up.
            pending.timer = self._network.sim.schedule(
                self._retry_delay(pending.attempts),
                lambda: self._give_up(key),
                tag=f"reliable.lastwait:{src}->{dst}",
            )
            return
        pending.timer = self._network.sim.schedule(
            self._retry_delay(pending.attempts),
            lambda: self._transmit(key),
            tag=f"reliable.retry:{src}->{dst}",
        )

    def _transmit_wire(self, key: Tuple[int, int, int], pending: _Pending) -> None:
        """Put one (re)transmission attempt on the wire."""
        src, dst, seq = key
        if pending.attempts > 1:
            self._network.sim.trace.record(
                self._network.sim.now, "net.retry", node=src,
                dst=dst, seq=seq, attempt=pending.attempts,
            )
        self._network.send(
            src, dst, DataEnvelope(seq=seq, payload=pending.payload),
            size_bytes=pending.size_bytes + ENVELOPE_OVERHEAD_BYTES,
            reliable=False,
        )

    def _retry_delay(self, attempts: int) -> float:
        return self.config.timeout * (self.config.backoff ** (attempts - 1))

    def _give_up(self, key: Tuple[int, int, int]) -> None:
        if self._pending.pop(key, None) is None:
            return
        src, dst, seq = key
        self._counts["gave_up"] += 1
        self._network.sim.trace.record(
            self._network.sim.now, "reliable.give_up", node=src, dst=dst, seq=seq,
        )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _on_message(
        self,
        user_cb: Callable[[int, int, Any], None],
        src: int,
        dst: int,
        payload: Any,
    ) -> None:
        if isinstance(payload, AckEnvelope):
            acked = self._pending.pop((dst, src, payload.seq), None)
            if acked is not None:
                self._counts["acked"] += 1
                if acked.timer is not None:
                    # Without this cancel, every acked send leaves one
                    # dead retry event in the simulator queue.
                    self._network.sim.cancel(acked.timer)
                    acked.timer = None
            return
        if isinstance(payload, DataEnvelope):
            # Ack every copy — the first ack may have been lost.
            self._network.send(dst, src, AckEnvelope(seq=payload.seq),
                               size_bytes=ACK_SIZE_BYTES, reliable=False)
            dedup_key = (src, payload.seq)
            seen = self._seen.setdefault(dst, set())
            if dedup_key in seen:
                self._counts["duplicates_suppressed"] += 1
                self._network.sim.trace.record(
                    self._network.sim.now, "reliable.dup_suppressed", node=dst,
                    src=src, seq=payload.seq,
                )
                return
            seen.add(dedup_key)
            user_cb(src, dst, payload.payload)
            return
        # Traffic from endpoints not using the layer passes through.
        user_cb(src, dst, payload)

    @property
    def pending_count(self) -> int:
        """Sends still awaiting acknowledgement."""
        return len(self._pending)

    def __repr__(self) -> str:
        return f"ReliableLayer(pending={len(self._pending)}, stats={self.stats})"


def reliable_transport(config: Optional[ReliabilityConfig] = None):
    """A ``transport_wrapper`` for ``Cluster``: wrap the network in a
    :class:`ReliableLayer` with ``config``."""
    def wrap(network):
        return ReliableLayer(network, config)
    return wrap


__all__ = [
    "DataEnvelope",
    "AckEnvelope",
    "ReliabilityConfig",
    "ReliableLayer",
    "reliable_transport",
    "ENVELOPE_OVERHEAD_BYTES",
    "ACK_SIZE_BYTES",
]
