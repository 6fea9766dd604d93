"""Message transport over a topology.

:class:`Network` delivers application payloads between attached
endpoints through the simulator, modelling per-link propagation,
bandwidth serialization (FIFO per directed link), loss, node failures,
partitions, and TCP-like per-pair connections.

Connections matter because CrystalBall's execution steering works "by
dropping the offending message and breaking the connection with the
message sender" (Section 2): :meth:`Network.break_connection` discards
all in-flight traffic on the pair and notifies both live endpoints.
Reliable sends model retransmission as added delay instead of loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..sim import LivenessRegistry, Simulator

OnMessage = Callable[[int, int, Any], None]
OnBroken = Callable[[int], None]

DEFAULT_MESSAGE_BYTES = 1024
RETRANSMIT_TIMEOUT = 0.2


class TransportError(Exception):
    """Raised on a send from an unattached source, or a non-positive
    uplink capacity.  An unattached *destination* is not an error: the
    message is dropped on arrival with reason ``detached``."""


@dataclass
class _Endpoint:
    on_message: OnMessage
    on_broken: Optional[OnBroken]


def _pair(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class _Path:
    """Everything a send needs to know about one directed pair.

    The link parameters are a copy of ``Topology.link(src, dst)`` as of
    ``version`` and are re-read only when the topology's version has
    moved on; the two watermarks are transport state and outlive any
    re-read.  Liveness, partitions and fault interposers are *not* here:
    they change without a topology version and are consulted per send.
    """

    __slots__ = ("version", "latency", "bandwidth", "loss", "busy_until",
                 "last_delivery", "tag", "conn")

    def __init__(self, src: int, dst: int) -> None:
        self.version = -1
        # FIFO watermark: when the previous byte finishes serializing.
        self.busy_until = 0.0
        # In-order watermark for reliable traffic (reset by a break).
        self.last_delivery = 0.0
        self.tag = f"net.deliver:{src}->{dst}"
        self.conn = _pair(src, dst)


class Network:
    """Simulated transport bound to a topology and liveness registry."""

    def __init__(
        self,
        sim: Simulator,
        topology,
        liveness: Optional[LivenessRegistry] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.liveness = liveness if liveness is not None else LivenessRegistry()
        # Give the registry a trace and clock so observer failures are
        # logged with simulated timestamps (see LivenessRegistry._notify).
        if self.liveness.trace is None:
            self.liveness.trace = sim.trace
        if self.liveness.clock is None:
            self.liveness.clock = lambda: sim.now
        self._endpoints: Dict[int, _Endpoint] = {}
        # TCP-like connection epoch per unordered pair: breaking a
        # connection bumps the epoch, invalidating in-flight messages.
        self._conn_epoch: Dict[Tuple[int, int], int] = {}
        # One record per directed pair that has carried a send.
        self._paths: Dict[Tuple[int, int], _Path] = {}
        # Optional per-node uplink capacity (bits/s): all of a node's
        # outgoing transfers serialize through it, modelling the shared
        # access-link bottleneck content-distribution systems contend on.
        self._uplink_bps: Dict[int, float] = {}
        self._uplink_busy: Dict[int, float] = {}
        # node -> index of its partition group while a partition is
        # installed; unlisted nodes share the implicit group -1.
        self._partition_of: Optional[Dict[int, int]] = None
        # Chaos fault interposers (see repro.chaos.faults): consulted on
        # every send, they may drop, duplicate, delay, or replace the
        # payload — the adversarial end of the fault spectrum, layered
        # on top of the benign link loss model below.
        self._fault_interposers: List[Any] = []
        # Topology listeners: called with a kind string ("partition",
        # "heal", "break") whenever connectivity changes.  Amortized
        # CrystalBall runtimes subscribe to flush their policy rankings —
        # connectivity is an input every cached ranking implicitly read.
        self.topology_listeners: List[Any] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.bytes_sent = 0
        # Hot-loop cache: the loss stream is one registry object per
        # name (looking it up per send costs a dict probe + method call).
        self._loss_rng = sim.rng.stream("net.loss")
        self._batch_tags: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Endpoint management
    # ------------------------------------------------------------------

    def attach(self, node_id: int, on_message: OnMessage, on_broken: Optional[OnBroken] = None) -> None:
        """Register the delivery callbacks for ``node_id``.

        ``on_message(src, dst, payload)`` is invoked at delivery time;
        ``on_broken(peer)`` when a connection with ``peer`` is broken.
        """
        self._endpoints[node_id] = _Endpoint(on_message=on_message, on_broken=on_broken)

    def detach(self, node_id: int) -> None:
        """Remove the endpoint; queued deliveries to it will be dropped."""
        self._endpoints.pop(node_id, None)

    def set_uplink(self, node_id: int, bits_per_second: float) -> None:
        """Cap the node's total outgoing capacity at ``bits_per_second``."""
        if bits_per_second <= 0:
            raise TransportError(f"uplink capacity must be positive, got {bits_per_second!r}")
        self._uplink_bps[node_id] = bits_per_second

    def uplink(self, node_id: int) -> Optional[float]:
        """The node's uplink cap in bits/s, or ``None`` if uncapped."""
        return self._uplink_bps.get(node_id)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def set_partition(self, groups: List[Set[int]]) -> None:
        """Install a partition: traffic between different groups is dropped.

        Nodes absent from every group form an implicit extra group.
        """
        self._partition_of = {
            node: idx for idx, group in enumerate(groups) for node in group
        }
        self._notify_topology("partition")

    def clear_partition(self) -> None:
        """Heal any installed partition."""
        self._partition_of = None
        self._notify_topology("heal")

    def _notify_topology(self, kind: str) -> None:
        for listener in list(self.topology_listeners):
            try:
                listener(kind)
            except Exception:
                # Listeners are best-effort observers; never let one
                # break connectivity management.
                self.sim.trace.record(
                    self.sim.now, "net.topology_listener_error", kind=kind,
                )

    # ------------------------------------------------------------------
    # Fault interposers
    # ------------------------------------------------------------------

    def add_fault_interposer(self, interposer: Any) -> None:
        """Install a fault interposer consulted on every send.

        The interposer's ``apply(src, dst, payload, now)`` returns a
        ``FaultDecision`` (or ``None`` to leave the send untouched).
        """
        self._fault_interposers.append(interposer)

    def _consult_faults(self, src: int, dst: int, payload: Any):
        """Fold all interposer decisions for one send (first drop wins)."""
        combined = None
        for interposer in self._fault_interposers:
            decision = interposer.apply(src, dst, payload, self.sim.now)
            if decision is None:
                continue
            if decision.drop:
                return decision
            if combined is None:
                combined = decision
            else:
                combined.duplicates += decision.duplicates
                combined.duplicate_delays = tuple(combined.duplicate_delays) + tuple(
                    decision.duplicate_delays
                )
                combined.extra_delay += decision.extra_delay
                if decision.replace is not None:
                    combined.replace = decision.replace
        return combined

    def _crosses_partition(self, a: int, b: int) -> bool:
        group_of = self._partition_of
        return group_of is not None and group_of.get(a, -1) != group_of.get(b, -1)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _resolve_path(self, src: int, dst: int, path: Optional[_Path]) -> _Path:
        """(Re)read the pair's link into its path record, creating the
        record on the pair's first send."""
        link = self.topology.link(src, dst)
        if path is None:
            path = self._paths[(src, dst)] = _Path(src, dst)
        path.latency = link.latency
        path.bandwidth = link.bandwidth
        path.loss = link.loss
        path.version = self.topology.version
        return path

    def _prepare_send(
        self,
        src: int,
        dst: int,
        payload: Any,
        size_bytes: int,
        reliable: bool,
    ):
        """Everything :meth:`send` does up to (but not including) the
        queue insertion.

        Returns ``None`` when the message is dropped at send time, else
        ``(arrival, delivered_payload, epoch, ctx, fault, tag)``.  Shared
        by :meth:`send` and :meth:`send_many` so the two paths cannot
        diverge: counters, liveness/partition/fault checks, loss
        sampling, FIFO serialization, and the ``net.send`` trace record
        all happen here, in exactly the per-send order.
        """
        if src not in self._endpoints:
            raise TransportError(f"source node {src} is not attached")
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if not self.liveness.is_up(src):
            self._drop(src, dst, payload, "source-down")
            return None
        if self._partition_of is not None and self._crosses_partition(src, dst):
            self._drop(src, dst, payload, "partition")
            return None
        fault = self._consult_faults(src, dst, payload) if self._fault_interposers else None
        if fault is not None and fault.drop:
            self._drop(src, dst, payload, fault.reason)
            return None

        path = self._paths.get((src, dst))
        if path is None or path.version != self.topology.version:
            path = self._resolve_path(src, dst, path)
        delay = path.latency
        loss = path.loss
        if loss > 0.0:
            rng = self._loss_rng
            if reliable:
                # Each sampled loss costs one retransmission timeout.
                while rng.random() < loss:
                    delay += RETRANSMIT_TIMEOUT + path.latency
            elif rng.random() < loss:
                self._drop(src, dst, payload, "loss")
                return None

        # Serialize through the directed link FIFO and, when capped, the
        # sender's shared uplink.
        now = self.sim.now
        start = path.busy_until
        if start < now:
            start = now
        uplink_bps = self._uplink_bps.get(src)
        if uplink_bps is not None:
            start = max(start, self._uplink_busy.get(src, 0.0))
            effective_bps = min(path.bandwidth, uplink_bps)
            tx_done = start + (size_bytes * 8.0) / effective_bps
            self._uplink_busy[src] = tx_done
        else:
            tx_done = start + (size_bytes * 8.0) / path.bandwidth
        path.busy_until = tx_done
        arrival = tx_done + delay

        displaced = fault is not None and fault.extra_delay > 0.0
        if displaced:
            arrival += fault.extra_delay
        epoch = None
        if reliable:
            if not displaced:
                # FIFO in-order delivery per directed pair.  A
                # chaos-displaced message deliberately skips the clamp
                # (and leaves the watermark alone): reordering *is* the
                # injected fault.
                if arrival < path.last_delivery:
                    arrival = path.last_delivery
                path.last_delivery = arrival
            epoch = self._conn_epoch.get(path.conn, 0)

        delivered_payload = payload
        if fault is not None and fault.replace is not None:
            delivered_payload = fault.replace

        tracer = self.sim.causal
        ctx = None
        if tracer is not None:
            ctx = tracer.send_event()
        trace = self.sim.trace
        if trace.enabled:
            trace.record(now, "net.send", node=src, dst=dst, size=size_bytes,
                         kind=type(payload).__name__)
        return arrival, delivered_payload, epoch, ctx, fault, path.tag

    def _schedule_duplicates(self, src, dst, arrival, payload, epoch, ctx, fault) -> None:
        for extra in fault.duplicate_delays[: fault.duplicates]:
            self.messages_duplicated += 1
            self.sim.schedule_at(
                arrival + extra,
                partial(self._deliver, src, dst, payload, epoch, ctx, True),
                f"net.deliver-dup:{src}->{dst}",
            )

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        size_bytes: int = DEFAULT_MESSAGE_BYTES,
        reliable: bool = True,
    ) -> bool:
        """Send ``payload`` from ``src`` to ``dst``.

        Reliable sends are delivered in order per pair, with loss turned
        into retransmission delay; unreliable sends may be dropped by
        link loss.  Returns ``False`` when the message is dropped at
        send time (source down, partition, or sampled loss).
        """
        prepared = self._prepare_send(src, dst, payload, size_bytes, reliable)
        if prepared is None:
            return False
        arrival, delivered_payload, epoch, ctx, fault, tag = prepared
        self.sim.schedule_at(
            arrival, partial(self._deliver, src, dst, delivered_payload, epoch, ctx), tag,
        )
        if fault is not None and fault.duplicates:
            self._schedule_duplicates(src, dst, arrival, delivered_payload,
                                      epoch, ctx, fault)
        return True

    def send_many(
        self,
        src: int,
        dsts,
        payload: Any,
        size_bytes: int = DEFAULT_MESSAGE_BYTES,
        reliable: bool = True,
    ) -> List[bool]:
        """Send ``payload`` from ``src`` to each of ``dsts`` — the
        broadcast fast path.

        Behaviourally identical to calling :meth:`send` once per
        destination, in order (same counters, same trace records, same
        loss draws, same delivery order — the equivalence is pinned by
        tests/net/test_send_many.py).  The difference is queue pressure:
        consecutive destinations whose deliveries land at the same
        arrival instant share ONE queue insertion that fans out at fire
        time, so a broadcast over a k-peer view costs O(distinct arrival
        times) heap operations instead of O(k).

        Ordering argument: within ``send_many`` no other event can be
        scheduled between the per-destination sends, so a contiguous
        same-arrival run occupies consecutive sequence numbers; firing
        them from one callback in send order is exactly the order the
        heap would have produced.  Fault-injected duplicates flush the
        pending run first so their interleaving matches the sequential
        path.

        Returns the per-destination accept flags, matching what
        :meth:`send` would have returned for each.
        """
        results: List[bool] = []
        batch: List[tuple] = []
        batch_arrival = 0.0
        for dst in dsts:
            prepared = self._prepare_send(src, dst, payload, size_bytes, reliable)
            if prepared is None:
                results.append(False)
                continue
            arrival, delivered_payload, epoch, ctx, fault, _tag = prepared
            if batch and arrival != batch_arrival:
                self._flush_batch(src, batch_arrival, batch)
                batch = []
            batch.append((dst, delivered_payload, epoch, ctx))
            batch_arrival = arrival
            if fault is not None and fault.duplicates:
                self._flush_batch(src, batch_arrival, batch)
                batch = []
                self._schedule_duplicates(src, dst, arrival, delivered_payload,
                                          epoch, ctx, fault)
            results.append(True)
        if batch:
            self._flush_batch(src, batch_arrival, batch)
        return results

    def _flush_batch(self, src: int, arrival: float, batch: List[tuple]) -> None:
        if len(batch) == 1:
            dst, payload, epoch, ctx = batch[0]
            self.sim.schedule_at(
                arrival, partial(self._deliver, src, dst, payload, epoch, ctx),
                self._paths[(src, dst)].tag,
            )
            return
        tag = self._batch_tags.get(src)
        if tag is None:
            tag = self._batch_tags[src] = f"net.deliver-many:{src}"
        self.sim.schedule_at(arrival, partial(self._deliver_batch, src, batch), tag)

    def _deliver_batch(self, src: int, batch: List[tuple]) -> None:
        if self.sim.causal is not None:
            for dst, payload, epoch, ctx in batch:
                self._deliver(src, dst, payload, epoch, ctx)
            return
        # Common case (no causal tracer), inlined from _deliver with the
        # per-message attribute walks hoisted: a k-peer broadcast fires
        # k application handlers from one event, so this loop IS the
        # simulator's hot loop at scale.
        epochs = self._conn_epoch
        is_up = self.liveness.is_up
        endpoints_get = self._endpoints.get
        trace = self.sim.trace
        for dst, payload, epoch, ctx in batch:
            if epoch is not None and epochs and epochs.get(_pair(src, dst), 0) != epoch:
                self._drop(src, dst, payload, "connection-broken", ctx)
                continue
            if not is_up(dst):
                self._drop(src, dst, payload, "destination-down", ctx)
                continue
            endpoint = endpoints_get(dst)
            if endpoint is None:
                self._drop(src, dst, payload, "detached", ctx)
                continue
            self.messages_delivered += 1
            if trace.enabled:
                trace.record(self.sim.now, "net.deliver", node=dst, src=src)
            endpoint.on_message(src, dst, payload)

    def _deliver(
        self,
        src: int,
        dst: int,
        payload: Any,
        epoch: Optional[int],
        ctx: Optional[Any] = None,
        dup: bool = False,
    ) -> None:
        # No epoch is recorded until some connection has been broken, and
        # until then every in-flight epoch is the default 0.
        epochs = self._conn_epoch
        if epoch is not None and epochs and epochs.get(_pair(src, dst), 0) != epoch:
            self._drop(src, dst, payload, "connection-broken", ctx)
            return
        if not self.liveness.is_up(dst):
            self._drop(src, dst, payload, "destination-down", ctx)
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            self._drop(src, dst, payload, "detached", ctx)
            return
        self.messages_delivered += 1
        tracer = self.sim.causal
        if tracer is None:
            trace = self.sim.trace
            if trace.enabled:
                trace.record(self.sim.now, "net.deliver", node=dst, src=src)
            endpoint.on_message(src, dst, payload)
            return
        event = tracer.deliver_event(ctx, dup)
        self.sim.trace.record(self.sim.now, "net.deliver", node=dst, src=src)
        # Inlined tracer.executing(event) — one scope per delivery makes
        # even the context-manager protocol measurable.
        scopes = tracer._current
        depth = len(scopes)
        scopes.append(event)
        try:
            endpoint.on_message(src, dst, payload)
        finally:
            del scopes[depth:]

    def _drop(
        self,
        src: int,
        dst: int,
        payload: Any,
        reason: str,
        ctx: Optional[Any] = None,
    ) -> None:
        self.messages_dropped += 1
        tracer = self.sim.causal
        if tracer is not None:
            tracer.drop_event(ctx)
        trace = self.sim.trace
        if trace.enabled:
            trace.record(
                self.sim.now, "net.drop", node=src, dst=dst, reason=reason,
                kind=type(payload).__name__,
            )

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def break_connection(self, a: int, b: int) -> None:
        """Break the TCP-like connection between ``a`` and ``b``.

        All in-flight reliable messages on the pair are dropped on
        arrival, and each live endpoint's ``on_broken`` callback fires
        with the peer id.  The next reliable send transparently opens a
        fresh connection (new epoch).
        """
        key = _pair(a, b)
        self._conn_epoch[key] = self._conn_epoch.get(key, 0) + 1
        for directed in ((a, b), (b, a)):
            path = self._paths.get(directed)
            if path is not None:
                path.last_delivery = 0.0
        self.sim.trace.record(self.sim.now, "net.break", node=a, peer=b)
        self._notify_topology("break")
        for me, peer in ((a, b), (b, a)):
            endpoint = self._endpoints.get(me)
            if endpoint is not None and endpoint.on_broken is not None and self.liveness.is_up(me):
                endpoint.on_broken(peer)

    def connection_epoch(self, a: int, b: int) -> int:
        """How many times the (a, b) connection has been broken."""
        return self._conn_epoch.get(_pair(a, b), 0)

    def __repr__(self) -> str:
        return (
            f"Network(endpoints={len(self._endpoints)}, sent={self.messages_sent}, "
            f"delivered={self.messages_delivered}, dropped={self.messages_dropped})"
        )


__all__ = ["Network", "TransportError", "DEFAULT_MESSAGE_BYTES", "RETRANSMIT_TIMEOUT"]
