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
from .serialization import _SCALARS, checkpoint_state, digest, restore_state, snapshot_value


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
    # Dispatch (called by the host node and the explorer's sandbox step)
    # ------------------------------------------------------------------

    def applicable_handlers(self, src: int, msg: Any) -> List[HandlerSpec]:
        """Registered handlers for ``msg`` whose guards pass."""
        specs = self._msg_handlers.get(type(msg), [])
        return [spec for spec in specs if spec.applicable(self, src, msg)]

    def deliver(self, src: int, msg: Any, handler: Optional[str] = None) -> bool:
        """Dispatch an inbound message: the one way into a message
        handler, live and in the explorer.

        Only the applicable handler named ``handler`` may run; without a
        name, several applicable handlers (NFA mode) are resolved by the
        context.  With none applicable the message is traced as
        ``service.unhandled`` and ignored (returns ``False``).
        """
        spec = self._sole_handlers.get(type(msg))
        if spec is None or (handler is not None and handler != spec.name):
            specs = self.applicable_handlers(src, msg)
            if handler is not None:
                specs = [s for s in specs if s.name == handler]
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
        """Run one specific handler (the leaf call of :meth:`deliver`)."""
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
        """Install a checkpoint produced by :meth:`checkpoint`, copying
        every container: the state becomes live, mutable state.  A
        sandbox instance restores lazily instead (:meth:`defer_copies`).
        """
        restore_state(self, checkpoint)

    def defer_copies(self) -> None:
        """Make this a sandbox instance, whose every step starts with a
        :meth:`restore` and ends with a hand-over of ``live_state()``:
        restore then copies a container only when a handler first reads
        its field, and ``live_state()`` is the handler's copies plus the
        untouched values of the checkpoint restored.

        The first read is caught by a ``__getattr__`` on a subclass made
        for the purpose, since a class with one makes every attribute
        read of its instances slower: live services keep their class.
        """
        self.__class__ = _deferring_class(type(self))

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


class _DeferredCopies:
    """What :meth:`Service.defer_copies` adds to a service class.

    A checkpoint is never written, so restore may hand the service the
    checkpoint's own containers as long as the service copies one
    before it can write to it, that is, at the first read of its field.
    """

    # Checkpoint values restore() installed that no handler has read
    # yet, by field name.  Empty and never written at class level;
    # restore gives an instance its own.
    _deferred: Dict[str, Any] = {}
    # State fields that are also class attributes: copied by restore,
    # since lookup would find the class attribute, not __getattr__,
    # once the instance attribute is gone.
    _shadowed: frozenset = frozenset()

    def restore(self, checkpoint: Dict[str, Any]) -> None:
        """Assign scalars; defer each container until its field is read
        (copied then) or assigned (superseded then)."""
        live = self.__dict__
        deferred = live.get("_deferred")
        if deferred is None:
            deferred = live["_deferred"] = {}
        shadowed = self._shadowed
        for name, value in checkpoint.items():
            if name in shadowed:
                setattr(self, name, snapshot_value(value))
            elif type(value) in _SCALARS:
                live[name] = value
                deferred.pop(name, None)
            else:
                live.pop(name, None)
                deferred[name] = value

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails: the first read of a
        # deferred field copies it into the instance.
        try:
            value = self.__dict__["_deferred"].pop(name)
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}") from None
        value = self.__dict__[name] = snapshot_value(value)
        return value

    def live_state(self) -> Dict[str, Any]:
        """The fields a handler read or assigned, as it left them, and
        the untouched rest of the checkpoint restored: no copy."""
        deferred = self._deferred
        live = self.__dict__
        return {
            name: deferred[name] if name in deferred and name not in live
            else getattr(self, name)
            for name in self.state_fields
        }


# Service class -> its subclass with deferred copies (and that subclass
# -> itself), made on first use.
_DEFERRING: Dict[type, type] = {}


def _deferring_class(cls: type) -> type:
    deferring = _DEFERRING.get(cls)
    if deferring is None:
        shadowed = frozenset(name for name in cls.state_fields if hasattr(cls, name))
        deferring = type(cls.__name__, (_DeferredCopies, cls), {"_shadowed": shadowed})
        _DEFERRING[cls] = _DEFERRING[deferring] = deferring
    return deferring


__all__ = ["Service", "DispatchError"]
