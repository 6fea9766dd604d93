"""Mace-like state-machine service framework.

Services are state machines driven by message and timer handler
invocations, with checkpointing, NFA-mode multiple handlers, and all
side effects routed through a swappable context (live vs sandboxed).
"""

from .context import ChoiceRequested, Context, Effects, LiveContext, SandboxContext
from .handlers import HandlerSpec, msg_handler, timer_handler
from .messages import Message
from .node import Cluster, DispatchRecord, InboundInterposer, Node
from .serialization import (
    SerializationError,
    checkpoint_state,
    digest,
    freeze,
    restore_state,
    snapshot_value,
)
from .service import DispatchError, Service
from .stack import LayerContext, LayerEnvelope, ServiceStack, make_stack_factory

__all__ = [
    "ChoiceRequested",
    "Context",
    "Effects",
    "LiveContext",
    "SandboxContext",
    "HandlerSpec",
    "msg_handler",
    "timer_handler",
    "Message",
    "Cluster",
    "DispatchRecord",
    "InboundInterposer",
    "Node",
    "SerializationError",
    "checkpoint_state",
    "digest",
    "freeze",
    "restore_state",
    "snapshot_value",
    "DispatchError",
    "Service",
    "LayerContext",
    "LayerEnvelope",
    "ServiceStack",
    "make_stack_factory",
]
