"""Node host: binds a service to the simulator and network.

Figure 1 of the paper shows the CrystalBall runtime *interposing*
between the network and the state machine.  :class:`Node` implements
that interposition point: inbound interposers (the CrystalBall runtime
registers itself as one) can observe, filter, or piggyback on every
arriving message, and the node owns live timers and the choice
resolver in use.

:class:`Cluster` is a convenience that wires ``n`` nodes over a
topology for experiments and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..choice.choicepoint import ChoicePoint
from ..choice.resolvers import FirstResolver
from ..net import Network, Topology, full_mesh
from ..sim import LivenessRegistry, Simulator
from .context import LiveContext
from .events import DeliverAction, TimerAction
from .service import Service


class InboundInterposer:
    """Observer/filter for messages arriving at a node.

    ``on_inbound`` returns ``False`` to suppress delivery to the
    service (used by execution steering's event filters).
    """

    def on_inbound(self, node: "Node", src: int, msg: Any) -> bool:
        return True


@dataclass
class DispatchRecord:
    """The dispatch currently executing on a node.

    Captured (when ``Node.capture_dispatch`` is set) so a predictive
    resolver can *replay* the running handler in a sandbox from the
    pre-dispatch checkpoint, substituting each candidate at the pending
    choice point.  ``event`` is the dispatch as the explorer steps it (a
    delivery names no handler: the context resolves it, as live);
    ``choices`` holds the values of choices already resolved earlier in
    this same dispatch, in order.
    """

    event: Union[DeliverAction, TimerAction]
    checkpoint: Dict[str, Any]
    choices: List[Any] = field(default_factory=list)


class Node:
    """Hosts one service instance on the simulated network."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        service: Service,
        choice_resolver: Optional[object] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.service = service
        self.choice_resolver = choice_resolver or FirstResolver()
        self.inbound_interposers: List[InboundInterposer] = []
        self._timers: Dict[str, int] = {}
        self._timer_payloads: Dict[str, Any] = {}
        self._timer_deadlines: Dict[str, float] = {}
        # Causal parent per armed timer: the event executing when the
        # timer was (re)armed, so a fire chains back to its cause.
        # Only populated when causal tracing is enabled.
        self._timer_causes: Dict[str, int] = {}
        self._timer_token = 0
        self.started = False
        # Chaos clock-skew injection: added to the service-visible clock
        # (ctx.now) only; simulator mechanics are unaffected.
        self.clock_skew = 0.0
        # Predictive resolvers set capture_dispatch so the node snapshots
        # its state before every dispatch (see DispatchRecord).
        self.capture_dispatch = False
        self.current_dispatch: Optional[DispatchRecord] = None
        # What is dispatching right now, captured or not: ("deliver",
        # message type) or ("timer", name).  With capture_kinds set (by
        # the amortized steering scheduler), armed capture checkpoints
        # only dispatches of those kinds — at high event rates snapshots
        # of every delivery would dwarf the choices they serve.
        self.current_dispatch_kind: Optional[tuple] = None
        self.capture_kinds: Optional[set] = None
        # The CrystalBall runtime attaches itself here when installed.
        self.crystalball: Optional[object] = None
        service.ctx = LiveContext(self)
        # Captured at construction so a restart can reset to pristine state.
        self._initial_checkpoint = service.checkpoint()
        network.attach(node_id, self._on_message, self._on_broken)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        """Whether this node is currently live."""
        return self.network.liveness.is_up(self.node_id)

    def start(self) -> None:
        """Run the service's ``on_init`` (idempotent)."""
        if self.started:
            return
        self.started = True
        tracer = self.sim.causal
        if tracer is None:
            self.sim.trace.record(self.sim.now, "node.start", node=self.node_id)
            self.service.on_init()
            return
        event = tracer.local_event()
        self.sim.trace.record(self.sim.now, "node.start", node=self.node_id)
        with tracer.executing(event):
            self.service.on_init()

    def crash(self) -> None:
        """Crash-stop this node: mark down and silence all timers."""
        self.network.liveness.fail(self.node_id)
        self._timers.clear()
        self._timer_payloads.clear()
        self._timer_deadlines.clear()
        self._timer_causes.clear()
        self.started = False
        self.sim.trace.record(self.sim.now, "node.crash", node=self.node_id)

    def restart(
        self,
        fresh_state: bool = True,
        checkpoint: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Recover a crashed node and re-run ``on_init``.

        With ``fresh_state`` (the default, matching crash-stop
        semantics without stable storage) the service state is reset to
        its post-construction checkpoint before restarting.  Passing an
        explicit ``checkpoint`` instead models crash-*recovery* with
        stable storage: the node resumes from that persisted state,
        losing everything since it was taken (the amnesia window).
        """
        self.network.liveness.recover(self.node_id)
        if checkpoint is not None:
            self.service.restore(checkpoint)
        elif fresh_state:
            self.service.restore(self._initial_checkpoint)
        self.started = True
        tracer = self.sim.causal
        if tracer is None:
            self.sim.trace.record(self.sim.now, "node.restart", node=self.node_id)
            self.service.on_init()
            return
        event = tracer.local_event()
        self.sim.trace.record(self.sim.now, "node.restart", node=self.node_id)
        with tracer.executing(event):
            self.service.on_init()

    # ------------------------------------------------------------------
    # Message path
    # ------------------------------------------------------------------

    def send_out(self, dst: int, msg: Any) -> bool:
        """Outbound path: one message to the network."""
        size = msg.wire_size() if hasattr(msg, "wire_size") else 1024
        return self.network.send(self.node_id, dst, msg, size_bytes=size)

    def broadcast_out(self, dsts, msg: Any) -> List[bool]:
        """Batched outbound fan-out of one message to many peers.

        Goes through the transport's ``send_many`` fast path when the
        attached transport has one, else an equivalent send loop.
        """
        dsts = list(dsts)
        if not dsts:
            return []
        size = msg.wire_size() if hasattr(msg, "wire_size") else 1024
        # Asked of the transport's class, not the instance: a wrapper
        # that forwards unknown attributes (ReliableLayer) would hand
        # back the raw network's send_many and the fan-out would bypass
        # the wrapper's own send.
        if hasattr(type(self.network), "send_many"):
            return self.network.send_many(self.node_id, dsts, msg, size_bytes=size)
        return [
            self.network.send(self.node_id, dst, msg, size_bytes=size)
            for dst in dsts
        ]

    def _on_message(self, src: int, dst: int, payload: Any) -> None:
        if not self.network.liveness.is_up(self.node_id):
            return
        for interposer in self.inbound_interposers:
            if not interposer.on_inbound(self, src, payload):
                self.sim.trace.record(
                    self.sim.now, "node.filtered_in", node=self.node_id,
                    src=src, msg=type(payload).__name__,
                )
                return
        self.current_dispatch_kind = ("deliver", type(payload))
        if self.capture_dispatch and (
            self.capture_kinds is None
            or self.current_dispatch_kind in self.capture_kinds
        ):
            self.current_dispatch = DispatchRecord(
                DeliverAction(src, self.node_id, payload), self.service.checkpoint())
        try:
            self.service.deliver(src, payload)
        finally:
            self.current_dispatch = None

    def _on_broken(self, peer: int) -> None:
        if self.is_up:
            self.service.on_connection_broken(peer)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def set_timer(self, name: str, delay: float, payload: Any = None) -> None:
        """(Re)arm a named timer; re-arming supersedes the old deadline."""
        self._timer_token += 1
        token = self._timer_token
        self._timers[name] = token
        self._timer_payloads[name] = payload
        self._timer_deadlines[name] = self.sim.now + delay
        tracer = self.sim.causal
        if tracer is not None:
            cause = tracer.current_event_id()
            if cause is not None:
                self._timer_causes[name] = cause
            else:
                self._timer_causes.pop(name, None)
        self.sim.schedule(
            delay,
            lambda: self._fire_timer(name, token),
            tag=f"timer:{self.node_id}:{name}",
        )

    def cancel_timer(self, name: str) -> None:
        """Disarm a named timer (no-op if not armed)."""
        self._timers.pop(name, None)
        self._timer_payloads.pop(name, None)
        self._timer_deadlines.pop(name, None)
        self._timer_causes.pop(name, None)

    def _fire_timer(self, name: str, token: int) -> None:
        if not self.is_up:
            return
        if self._timers.get(name) != token:
            return  # superseded or cancelled
        payload = self._timer_payloads.pop(name, None)
        self._timers.pop(name, None)
        self._timer_deadlines.pop(name, None)
        tracer = self.sim.causal
        if tracer is None:
            self.sim.trace.record(self.sim.now, "node.timer", node=self.node_id, name=name)
            self._dispatch_timer(name, payload)
            return
        event = tracer.timer_event(self._timer_causes.pop(name, None))
        self.sim.trace.record(self.sim.now, "node.timer", node=self.node_id, name=name)
        # Inlined tracer.executing(event) — see transport._deliver.
        scopes = tracer._current
        depth = len(scopes)
        scopes.append(event)
        try:
            self._dispatch_timer(name, payload)
        finally:
            del scopes[depth:]

    def _dispatch_timer(self, name: str, payload: Any) -> None:
        self.current_dispatch_kind = ("timer", name)
        if self.capture_dispatch and (
            self.capture_kinds is None
            or self.current_dispatch_kind in self.capture_kinds
        ):
            self.current_dispatch = DispatchRecord(
                TimerAction(self.node_id, name, payload), self.service.checkpoint())
        try:
            self.service.fire_timer(name, payload)
        finally:
            self.current_dispatch = None

    def pending_timers(self) -> List[tuple]:
        """Live timers as ``(name, deadline, payload)`` (for snapshots)."""
        return [
            (name, self._timer_deadlines[name], self._timer_payloads.get(name))
            for name in sorted(self._timers)
        ]

    # ------------------------------------------------------------------
    # Choices
    # ------------------------------------------------------------------

    def resolve_choice(self, point: ChoicePoint) -> Any:
        """Resolve an exposed choice with the node's resolver.

        The resolved value is recorded on the current dispatch (when
        captured) so predictive replays can reproduce earlier choices.
        """
        value = self.choice_resolver.resolve(point, node=self)
        if self.current_dispatch is not None:
            self.current_dispatch.choices.append(value)
        return value

    def __repr__(self) -> str:
        return f"Node(id={self.node_id}, service={type(self.service).__name__})"


ServiceFactory = Callable[[int], Service]
ResolverFactory = Callable[[int], object]


class Cluster:
    """``n`` nodes running one service class over a shared topology."""

    def __init__(
        self,
        n: int,
        service_factory: ServiceFactory,
        topology: Optional[Topology] = None,
        seed: int = 0,
        resolver_factory: Optional[ResolverFactory] = None,
        transport_wrapper: Optional[Callable[[Network], Any]] = None,
        causal: bool = False,
    ) -> None:
        self.sim = Simulator(seed=seed)
        # Causal tracing is opt-in: with it on, every send/deliver/
        # timer/choice record carries a happens-before stamp (see
        # repro.obs.causal); with it off (the default) the stamp paths
        # cost one attribute test each.
        self.causal = None
        if causal:
            from ..obs.causal import enable_causal_tracing

            self.causal = enable_causal_tracing(self.sim)
        self.topology = topology if topology is not None else full_mesh(n)
        if self.topology.n < n:
            raise ValueError(f"topology has {self.topology.n} nodes, cluster needs {n}")
        self.liveness = LivenessRegistry()
        self.network = Network(self.sim, self.topology, self.liveness)
        # Nodes talk through the (optionally wrapped) transport — e.g.
        # repro.chaos.reliable_transport adds at-least-once delivery —
        # while self.network stays the raw substrate for fault injection
        # and statistics.
        self.transport = (
            transport_wrapper(self.network) if transport_wrapper else self.network
        )
        self.nodes: List[Node] = []
        for node_id in range(n):
            resolver = resolver_factory(node_id) if resolver_factory else None
            service = service_factory(node_id)
            self.nodes.append(Node(node_id, self.sim, self.transport, service, resolver))

    def start_all(self, order: Optional[Sequence[int]] = None) -> None:
        """Start every node (in ``order`` if given, else by id)."""
        for node_id in order if order is not None else range(len(self.nodes)):
            self.nodes[node_id].start()

    def node(self, node_id: int) -> Node:
        """The node with the given id."""
        return self.nodes[node_id]

    def service(self, node_id: int) -> Service:
        """The service instance hosted on ``node_id``."""
        return self.nodes[node_id].service

    @property
    def services(self) -> List[Service]:
        """All service instances, by node id."""
        return [node.service for node in self.nodes]

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the underlying simulator."""
        return self.sim.run(until=until, max_events=max_events)


__all__ = [
    "Node",
    "Cluster",
    "DispatchRecord",
    "InboundInterposer",
]
