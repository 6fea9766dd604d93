"""The state-machine service base class (Mace-like).

"As in many existing approaches, we assume that the distributed service
is implemented as a state machine that runs on every node" (Section 2).
A :class:`Service` subclass declares:

* ``state_fields`` — the names of its plain-data state attributes,
  which define its checkpoints;
* message handlers via ``@msg_handler(MsgClass)`` — several handlers
  for the same class put the service in NFA mode, with the runtime
  resolving which one applies;
* timer handlers via ``@timer_handler("name")``.

All side effects go through the bound context, so the same service code
runs live and inside model-checker sandboxes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..choice.choicepoint import ChoiceError, ChoicePoint
from .context import Context
from .handlers import HandlerSpec, collect_handlers
from .serialization import checkpoint_state, digest, restore_state


class DispatchError(Exception):
    """Raised when a message or timer cannot be dispatched."""


class Service:
    """Base class for distributed services."""

    state_fields: Sequence[str] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._msg_handlers, cls._timer_handlers = collect_handlers(cls)
        # Message types with exactly one handler and no guard need no
        # applicability scan: deliver() finds their spec in one lookup.
        # Rebuilt per subclass, so a subclass that adds a second handler
        # or a guard for a type takes that type off the table.
        cls._sole_handlers = {
            msg_cls: specs[0] for msg_cls, specs in cls._msg_handlers.items()
            if len(specs) == 1 and specs[0].guard is None
        }

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.ctx: Optional[Context] = None

    # ------------------------------------------------------------------
    # Lifecycle (overridable)
    # ------------------------------------------------------------------

    def on_init(self) -> None:
        """Called when the node starts (or restarts after a failure)."""

    def on_connection_broken(self, peer: int) -> None:
        """Called when the transport connection with ``peer`` breaks."""

    # ------------------------------------------------------------------
    # Downcalls
    # ------------------------------------------------------------------

    def send(self, dst: int, msg: Any) -> None:
        """Send ``msg`` to node ``dst``."""
        self.ctx.send(dst, msg)

    def broadcast(self, dsts: Sequence[int], msg: Any) -> None:
        """Send the same ``msg`` to every node in ``dsts``.

        Behaviourally identical to a per-destination ``send`` loop; on a
        live node the fan-out goes through the transport's batched
        ``send_many`` fast path (one queue insertion per distinct
        arrival time instead of one per destination).
        """
        self.ctx.broadcast(dsts, msg)

    def set_timer(self, name: str, delay: float, payload: Any = None) -> None:
        """(Re)arm the named timer ``delay`` seconds from now."""
        self.ctx.set_timer(name, delay, payload)

    def cancel_timer(self, name: str) -> None:
        """Cancel the named timer if armed."""
        self.ctx.cancel_timer(name)

    def now(self) -> float:
        """Current time as seen by this service."""
        return self.ctx.now()

    def rng(self, stream: str = "default"):
        """Named deterministic random stream scoped to this node."""
        return self.ctx.random(stream)

    def choose(self, label: str, candidates: Sequence[Any], **info: Any) -> Any:
        """Expose a choice to the runtime and return the resolved value.

        This is the paper's core API.  With a single candidate the value
        is returned directly (no non-determinism to resolve).
        """
        candidates = list(candidates)
        if not candidates:
            raise ChoiceError(f"choice {label!r} at node {self.node_id}: no candidates")
        if len(candidates) == 1:
            return candidates[0]
        point = ChoicePoint(label=label, candidates=candidates, node_id=self.node_id, info=info)
        return self.ctx.choose(point)

    def record(self, category: str, **data: Any) -> None:
        """Append an application trace record."""
        self.ctx.record(category, **data)

    # ------------------------------------------------------------------
    # Dispatch (called by the host / explorer)
    # ------------------------------------------------------------------

    def applicable_handlers(self, src: int, msg: Any) -> List[HandlerSpec]:
        """Registered handlers for ``msg`` whose guards pass."""
        specs = self._msg_handlers.get(type(msg), [])
        return [spec for spec in specs if spec.applicable(self, src, msg)]

    def deliver(self, src: int, msg: Any) -> bool:
        """Dispatch an inbound message.

        With several applicable handlers (NFA mode) the context resolves
        which one runs.  Returns ``False`` for messages with no
        applicable handler (they are traced and ignored, matching
        transport semantics of unhandled messages).
        """
        spec = self._sole_handlers.get(type(msg))
        if spec is None:
            specs = self.applicable_handlers(src, msg)
            if not specs:
                self.record("service.unhandled", msg=type(msg).__name__, src=src)
                return False
            if len(specs) == 1:
                spec = specs[0]
            else:
                spec = self.ctx.choose_handler(src, msg, specs)
        self.invoke_handler(spec, src, msg)
        return True

    def invoke_handler(self, spec: HandlerSpec, src: int, msg: Any) -> None:
        """Run one specific handler (used directly by the explorer)."""
        spec.fn(self, src, msg)

    def fire_timer(self, name: str, payload: Any = None) -> None:
        """Dispatch a timer expiry to its registered handler."""
        fn = self._timer_handlers.get(name)
        if fn is None:
            raise DispatchError(f"{type(self).__name__} has no handler for timer {name!r}")
        fn(self, payload)

    def timer_names(self) -> List[str]:
        """Names of all timers this service can handle."""
        return list(self._timer_handlers)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Deep-copied plain-data snapshot of the declared state fields."""
        return checkpoint_state(self, self.state_fields)

    def restore(self, checkpoint: Dict[str, Any]) -> None:
        """Install a checkpoint produced by :meth:`checkpoint`."""
        restore_state(self, checkpoint)

    def live_state(self) -> Dict[str, Any]:
        """The declared state fields by name, *not* copied: the shape of
        :meth:`checkpoint` over the live values, for read-only use."""
        return {name: getattr(self, name) for name in self.state_fields}

    def state_digest(self) -> str:
        """Stable digest of the current state (for MC state hashing).

        Equal to ``digest(self.checkpoint())`` without the copy:
        digesting only reads.
        """
        return digest(self.live_state())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node_id={self.node_id})"


__all__ = ["Service", "DispatchError"]
