"""Layered service composition (Mace-style).

Mace services are built in layers — an overlay protocol runs on top of
transports and membership services on the same node.  A
:class:`ServiceStack` hosts an ordered set of named layer services as a
single node-level service:

* wire messages are wrapped in a :class:`LayerEnvelope` and routed to
  the addressed layer;
* timers, random streams, trace categories, and choice labels are
  namespaced per layer;
* checkpoints aggregate every layer's checkpoint, so model checking,
  checkpoint exchange, and dispatch replay work on stacks unchanged;
* layers reach each other through :meth:`ServiceStack.layer` (downcalls
  to lower layers, upcalls by calling methods on an upper layer).

Because a layer's downcalls go through a :class:`LayerContext` that
*delegates to the stack's own context*, the same layer code runs live
and inside model-checker sandboxes — composition preserves the one
service / two worlds property (docs/internals.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..choice.choicepoint import ChoicePoint
from .context import Context
from .handlers import HandlerSpec
from .messages import Message
from .service import Service
from .handlers import msg_handler

LAYER_SEPARATOR = ":"


@dataclass
class LayerEnvelope(Message):
    """Wire wrapper addressing a message to one layer of the peer stack."""

    layer: str
    inner: Any

    def wire_size(self) -> int:
        base = 16 + len(self.layer)
        if hasattr(self.inner, "wire_size"):
            return base + self.inner.wire_size()
        return base + 64


class LayerContext(Context):
    """A layer's view of the stack's context.

    Delegates every downcall to the hosting stack's current context
    (live or sandboxed), namespacing names so layers cannot collide.
    """

    def __init__(self, stack: "ServiceStack", layer_name: str) -> None:
        self.stack = stack
        self.layer_name = layer_name

    def _scoped(self, name: str) -> str:
        return f"{self.layer_name}{LAYER_SEPARATOR}{name}"

    def now(self) -> float:
        return self.stack.ctx.now()

    def send(self, dst: int, msg: Any) -> None:
        self.stack.ctx.send(dst, LayerEnvelope(layer=self.layer_name, inner=msg))

    def set_timer(self, name: str, delay: float, payload: Any = None) -> None:
        self.stack.ctx.set_timer(self._scoped(name), delay, payload)

    def cancel_timer(self, name: str) -> None:
        self.stack.ctx.cancel_timer(self._scoped(name))

    def choose(self, point: ChoicePoint) -> Any:
        scoped = ChoicePoint(
            label=self._scoped(point.label),
            candidates=point.candidates,
            node_id=point.node_id,
            info=point.info,
        )
        return self.stack.ctx.choose(scoped)

    def choose_handler(self, src: int, msg: Any, specs: List[HandlerSpec]) -> HandlerSpec:
        return self.stack.ctx.choose_handler(src, msg, specs)

    def random(self, stream: str):
        return self.stack.ctx.random(self._scoped(stream))

    def record(self, category: str, **data: Any) -> None:
        self.stack.ctx.record(f"{self.layer_name}.{category}", **data)


class ServiceStack(Service):
    """Hosts named layer services as one node-level service."""

    def __init__(self, node_id: int, layers: Sequence[Tuple[str, Service]]) -> None:
        super().__init__(node_id)
        if not layers:
            raise ValueError("a service stack needs at least one layer")
        self._order: List[str] = []
        self.layers: Dict[str, Service] = {}
        for name, layer in layers:
            if LAYER_SEPARATOR in name:
                raise ValueError(f"layer name {name!r} may not contain {LAYER_SEPARATOR!r}")
            if name in self.layers:
                raise ValueError(f"duplicate layer name {name!r}")
            self._order.append(name)
            self.layers[name] = layer
            layer.ctx = LayerContext(self, name)
            layer.stack = self

    # ------------------------------------------------------------------
    # Layer access (down/upcalls)
    # ------------------------------------------------------------------

    def layer(self, name: str) -> Service:
        """The layer service registered under ``name``."""
        return self.layers[name]

    # ------------------------------------------------------------------
    # Lifecycle and dispatch
    # ------------------------------------------------------------------

    def on_init(self) -> None:
        for name in self._order:
            self.layers[name].on_init()

    def on_connection_broken(self, peer: int) -> None:
        for name in self._order:
            self.layers[name].on_connection_broken(peer)

    @msg_handler(LayerEnvelope)
    def route_envelope(self, src: int, msg: LayerEnvelope) -> None:
        layer = self.layers.get(msg.layer)
        if layer is None:
            self.record("stack.unknown_layer", layer=msg.layer,
                        msg=type(msg.inner).__name__)
            return
        layer.deliver(src, msg.inner)

    def fire_timer(self, name: str, payload: Any = None) -> None:
        layer_name, _, timer_name = name.partition(LAYER_SEPARATOR)
        layer = self.layers.get(layer_name)
        if layer is None or not timer_name:
            from .service import DispatchError

            raise DispatchError(f"stack has no layer timer {name!r}")
        layer.fire_timer(timer_name, payload)

    def timer_names(self) -> List[str]:
        names = []
        for layer_name in self._order:
            for timer in self.layers[layer_name].timer_names():
                names.append(f"{layer_name}{LAYER_SEPARATOR}{timer}")
        return names

    # ------------------------------------------------------------------
    # Checkpoints (aggregate of all layers)
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        return {name: self.layers[name].checkpoint() for name in self._order}

    def restore(self, checkpoint: Dict[str, Any]) -> None:
        for name, layer_state in checkpoint.items():
            self.layers[name].restore(layer_state)

    def live_state(self) -> Dict[str, Any]:
        return {name: self.layers[name].live_state() for name in self._order}

    def __repr__(self) -> str:
        return f"ServiceStack(node_id={self.node_id}, layers={self._order})"


def make_stack_factory(layer_factories: Sequence[Tuple[str, Any]]):
    """Factory of identical stacks from per-layer factories.

    ``layer_factories`` is an ordered list of ``(name, factory)`` where
    each factory maps a node id to that layer's service instance.
    """

    def factory(node_id: int) -> ServiceStack:
        return ServiceStack(
            node_id, [(name, make(node_id)) for name, make in layer_factories],
        )

    return factory


__all__ = ["ServiceStack", "LayerEnvelope", "LayerContext", "make_stack_factory",
           "LAYER_SEPARATOR"]
