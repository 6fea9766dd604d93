"""A tiny token-passing protocol for exercising the model checker."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.statemachine import Message, Service, msg_handler, timer_handler


@dataclass
class Token(Message):
    """A counter token passed between nodes."""

    value: int


class TokenService(Service):
    """Accumulates tokens; forwards until a cap, choosing the target."""

    state_fields = ("total", "forwards")

    def __init__(self, node_id: int, n: int = 3, cap: int = 2) -> None:
        super().__init__(node_id)
        self.n = n
        self.cap = cap
        self.total = 0
        self.forwards = 0

    def on_init(self) -> None:
        self.set_timer("kick", 1.0)

    @timer_handler("kick")
    def on_kick(self, payload) -> None:
        peers = [p for p in range(self.n) if p != self.node_id]
        target = self.choose("kick-target", peers)
        self.send(target, Token(value=1))

    @msg_handler(Token)
    def on_token(self, src: int, msg: Token) -> None:
        self.total += msg.value
        if self.forwards < self.cap:
            self.forwards += 1
            peers = [p for p in range(self.n) if p != self.node_id]
            target = self.choose("fwd-target", peers)
            self.send(target, Token(value=msg.value))


@pytest.fixture
def token_factory():
    return lambda node_id: TokenService(node_id, n=3)


@dataclass
class Ping(Message):
    """A hop count passed along a chain of nodes."""

    hops: int


class LoopService(Service):
    """A ``tick`` timer that re-arms itself, with ``mode`` saying what
    else its handler does: ``loop`` nothing, ``payload`` re-arm with the
    next payload, ``bool`` re-arm with the payload as a bool (``1``
    becomes ``True``, equal but of another type), ``cancel`` cancel the
    ``other`` timer, ``send`` send a ping to the next node, ``count``
    count the tick in the state,
    ``clock`` read the clock and count the tick only once it is past
    ``threshold``.  An ``other`` timer is counted as a tick and not
    re-armed, so cancelling it leads elsewhere than firing it.  A ping is
    counted and forwarded up the chain while it has hops left."""

    state_fields = ("ticks", "pings")

    def __init__(self, node_id: int, n: int = 3, mode: str = "loop",
                 threshold: float = 0.0) -> None:
        super().__init__(node_id)
        self.n = n
        self.mode = mode
        self.threshold = threshold
        self.ticks = 0
        self.pings = 0

    @timer_handler("tick")
    def on_tick(self, payload) -> None:
        if self.mode == "payload":
            payload = (payload or 0) + 1
        elif self.mode == "bool":
            payload = bool(payload)
        elif self.mode == "cancel":
            self.cancel_timer("other")
        elif self.mode == "send":
            self.send((self.node_id + 1) % self.n, Ping(hops=0))
        elif self.mode == "count":
            self.ticks += 1
        elif self.mode == "clock":
            if self.now() > self.threshold:
                self.ticks += 1
        self.set_timer("tick", 1.0, payload)

    @timer_handler("other")
    def on_other(self, payload) -> None:
        self.ticks += 1

    @msg_handler(Ping)
    def on_ping(self, src: int, msg: Ping) -> None:
        self.pings += 1
        if msg.hops > 0:
            self.send((self.node_id + 1) % self.n, Ping(hops=msg.hops - 1))
