"""HyParView-style partial-view membership.

Full-mesh membership is what pins every experiment at toy scale: each
node tracking (and gossiping with, and checkpointing to) all n-1 peers
makes world size a quadratic cost.  Partisan's scaling result (see
PAPERS.md) replaced full views with HyParView partial views — a small
symmetric *active* view used for actual traffic, backed by a larger
*passive* view of fallback peers refreshed by random-walk shuffles —
and took an actor runtime from ~200 to 10k+ nodes.  This module is that
move for our stack.

:class:`PartialViewMembership` is a :class:`~repro.statemachine.Service`
mixin.  Compose it *before* an application service so its cooperative
``on_init`` bootstraps the overlay and the application inherits:

* ``self.active`` / ``self.passive`` — the two views (checkpointable
  state fields, deterministic list order);
* ``neighbors()`` — the active view, which the CrystalBall runtime
  picks up automatically for O(active_size) checkpoint neighborhoods
  instead of O(n) full broadcasts;
* ``on_neighbor_up(peer)`` / ``on_neighbor_down(peer)`` — overridable
  reaction hooks;
* trace records ``view.join`` / ``view.up`` / ``view.down`` /
  ``view.shuffle`` for forensics.

All randomness (walk targets, shuffle samples, evictions) draws from
the node-scoped named stream ``"membership"``, so runs are reproducible
and adding membership does not perturb application streams.

Protocol summary (HyParView, lightly simplified):

* JOIN — a joiner contacts a bootstrap node, which links to it and
  propagates FORWARD-JOIN random walks of TTL ``arwl`` through its
  active view; walks insert the joiner into passive views at TTL
  ``prwl`` and into the active view of the node where they terminate.
* NEIGHBOR — active-view links are negotiated: the requester sends
  ``ViewNeighbor`` (high priority when it has no active peers, which
  the receiver may not refuse), the receiver answers accepted/rejected.
* SHUFFLE — periodically each node sends a sample of both views on a
  short random walk; where the walk ends, samples are exchanged into
  passive views, keeping them fresh under churn.
* PROBE — lightweight failure detection: unanswered probes beyond
  ``probe_miss_limit`` drop the peer and promote a passive fallback,
  as does a broken transport connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..statemachine.handlers import msg_handler, timer_handler
from ..statemachine.messages import Message
from ..statemachine.service import Service

VIEW_STATE_FIELDS = ("active", "passive", "probe_missed")


@dataclass
class ViewConfig:
    """Partial-view parameters.

    Defaults follow the HyParView paper's shape: a fist-sized active
    view (c + log n with small c) and a passive view a few times
    larger.  ``contact`` is the bootstrap node every joiner contacts
    first.
    """

    active_size: int = 5
    passive_size: int = 30
    arwl: int = 6              # active random-walk length (forward-joins)
    prwl: int = 3              # passive random-walk length
    shuffle_period: float = 1.0
    shuffle_active: int = 3    # active samples per shuffle
    shuffle_passive: int = 4   # passive samples per shuffle
    probe_period: float = 0.5
    probe_miss_limit: int = 3
    contact: int = 0
    join_retry: float = 1.0


@dataclass
class ViewJoin(Message):
    joiner: int


@dataclass
class ViewForwardJoin(Message):
    joiner: int
    ttl: int


@dataclass
class ViewNeighbor(Message):
    priority: bool


@dataclass
class ViewNeighborReply(Message):
    accepted: bool


@dataclass
class ViewDisconnect(Message):
    pass


@dataclass
class ViewShuffle(Message):
    origin: int
    ttl: int
    nodes: List[int]


@dataclass
class ViewShuffleReply(Message):
    nodes: List[int]


@dataclass
class ViewProbe(Message):
    pass


@dataclass
class ViewProbeAck(Message):
    pass


class PartialViewMembership(Service):
    """Service mixin maintaining HyParView active/passive views.

    Usable standalone (pure membership node) or composed in front of an
    application service::

        class ViewGossip(PartialViewMembership, ExposedGossip):
            state_fields = ExposedGossip.state_fields + VIEW_STATE_FIELDS

            def __init__(self, node_id, config=None, view_config=None):
                ExposedGossip.__init__(self, node_id, config)
                self.init_views(view_config)

    The mixin's ``on_init`` bootstraps the overlay and then calls
    ``super().on_init()`` so the application's initialization runs too.
    """

    state_fields = VIEW_STATE_FIELDS

    def __init__(self, node_id: int, view_config: Optional[ViewConfig] = None) -> None:
        super().__init__(node_id)
        self.init_views(view_config)

    def init_views(self, view_config: Optional[ViewConfig] = None) -> None:
        """Initialize view state; composed classes call this from their
        own ``__init__`` instead of chaining this class's."""
        self.view_config = view_config if view_config is not None else ViewConfig()
        self.active: List[int] = []
        self.passive: List[int] = []
        self.probe_missed: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Hooks / introspection
    # ------------------------------------------------------------------

    def on_neighbor_up(self, peer: int) -> None:
        """Called when ``peer`` enters the active view."""

    def on_neighbor_down(self, peer: int) -> None:
        """Called when ``peer`` leaves the active view."""

    def neighbors(self) -> List[int]:
        """The active view — the CrystalBall runtime calls this to pick
        its checkpoint/prediction neighborhood."""
        return list(self.active)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_init(self) -> None:
        cfg = self.view_config
        if self.node_id != cfg.contact:
            self.send(cfg.contact, ViewJoin(joiner=self.node_id))
            self.set_timer("view-join-retry", cfg.join_retry)
        rng = self._view_rng()
        if cfg.shuffle_period > 0:
            # Desynchronized start offsets: a thousand nodes shuffling
            # on the same instant would serialize through the queue.
            self.set_timer("view-shuffle", cfg.shuffle_period * (1.0 + rng.random()))
        if cfg.probe_period > 0:
            self.set_timer("view-probe", cfg.probe_period * (1.0 + rng.random()))
        super().on_init()

    def on_connection_broken(self, peer: int) -> None:
        if peer in self.active:
            self._drop_active(peer, reason="connection-broken", demote=True,
                              disconnect=False)
        super().on_connection_broken(peer)

    # ------------------------------------------------------------------
    # Join protocol
    # ------------------------------------------------------------------

    @msg_handler(ViewJoin)
    def handle_view_join(self, src: int, msg: ViewJoin) -> None:
        joiner = msg.joiner
        if joiner == self.node_id:
            return
        self.record("view.join", joiner=joiner)
        walkers = [p for p in self.active if p != joiner]
        self._add_active(joiner)
        ttl = self.view_config.arwl
        for peer in walkers:
            self.send(peer, ViewForwardJoin(joiner=joiner, ttl=ttl))

    @msg_handler(ViewForwardJoin)
    def handle_forward_join(self, src: int, msg: ViewForwardJoin) -> None:
        joiner = msg.joiner
        if joiner == self.node_id:
            return
        cfg = self.view_config
        if msg.ttl <= 0 or len(self.active) <= 1:
            self._add_active(joiner)
            return
        if msg.ttl == cfg.prwl:
            self._add_passive(joiner)
        onward = [p for p in self.active if p != src and p != joiner]
        if onward:
            nxt = self._view_rng().choice(onward)
            self.send(nxt, ViewForwardJoin(joiner=joiner, ttl=msg.ttl - 1))
        else:
            self._add_active(joiner)

    @timer_handler("view-join-retry")
    def on_view_join_retry(self, payload) -> None:
        if self.active:
            return
        cfg = self.view_config
        if self.node_id != cfg.contact:
            self.send(cfg.contact, ViewJoin(joiner=self.node_id))
            self.set_timer("view-join-retry", cfg.join_retry)

    # ------------------------------------------------------------------
    # Neighbor negotiation
    # ------------------------------------------------------------------

    @msg_handler(ViewNeighbor)
    def handle_view_neighbor(self, src: int, msg: ViewNeighbor) -> None:
        cfg = self.view_config
        if src in self.active:
            self.send(src, ViewNeighborReply(accepted=True))
            return
        if msg.priority or len(self.active) < cfg.active_size:
            self._add_active(src, notify=False)
            self.send(src, ViewNeighborReply(accepted=True))
        else:
            self._add_passive(src)
            self.send(src, ViewNeighborReply(accepted=False))

    @msg_handler(ViewNeighborReply)
    def handle_view_neighbor_reply(self, src: int, msg: ViewNeighborReply) -> None:
        if msg.accepted:
            self._add_active(src, notify=False)
        else:
            if src in self.active:
                self._drop_active(src, reason="refused", demote=True,
                                  disconnect=False)
            else:
                self._add_passive(src)
                self._fill_active()

    @msg_handler(ViewDisconnect)
    def handle_view_disconnect(self, src: int, msg: ViewDisconnect) -> None:
        if src in self.active:
            self._drop_active(src, reason="disconnect", demote=True,
                              disconnect=False)

    # ------------------------------------------------------------------
    # Shuffles
    # ------------------------------------------------------------------

    @timer_handler("view-shuffle")
    def on_view_shuffle(self, payload) -> None:
        cfg = self.view_config
        if self.active:
            rng = self._view_rng()
            target = rng.choice(self.active)
            nodes = [self.node_id]
            nodes += self._sample(self.active, cfg.shuffle_active, {target})
            nodes += self._sample(self.passive, cfg.shuffle_passive, {target})
            self.record("view.shuffle", target=target, count=len(nodes))
            self.send(target, ViewShuffle(origin=self.node_id, ttl=cfg.prwl,
                                          nodes=nodes))
        self.set_timer("view-shuffle", cfg.shuffle_period)

    @msg_handler(ViewShuffle)
    def handle_view_shuffle(self, src: int, msg: ViewShuffle) -> None:
        if msg.origin == self.node_id:
            return
        if msg.ttl > 0:
            onward = [p for p in self.active if p != src and p != msg.origin]
            if onward:
                nxt = self._view_rng().choice(onward)
                self.send(nxt, ViewShuffle(origin=msg.origin, ttl=msg.ttl - 1,
                                           nodes=msg.nodes))
                return
        reply = self._sample(self.passive, len(msg.nodes), {msg.origin})
        for peer in msg.nodes:
            self._add_passive(peer)
        self.send(msg.origin, ViewShuffleReply(nodes=reply))

    @msg_handler(ViewShuffleReply)
    def handle_view_shuffle_reply(self, src: int, msg: ViewShuffleReply) -> None:
        for peer in msg.nodes:
            self._add_passive(peer)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------

    @timer_handler("view-probe")
    def on_view_probe(self, payload) -> None:
        cfg = self.view_config
        for peer in list(self.active):
            missed = self.probe_missed.get(peer, 0)
            if missed >= cfg.probe_miss_limit:
                self._drop_active(peer, reason="probe-timeout", demote=False,
                                  disconnect=False)
                continue
            self.probe_missed[peer] = missed + 1
            self.send(peer, ViewProbe())
        self.set_timer("view-probe", cfg.probe_period)

    @msg_handler(ViewProbe)
    def handle_view_probe(self, src: int, msg: ViewProbe) -> None:
        self.send(src, ViewProbeAck())

    @msg_handler(ViewProbeAck)
    def handle_view_probe_ack(self, src: int, msg: ViewProbeAck) -> None:
        if src in self.active:
            self.probe_missed[src] = 0

    # ------------------------------------------------------------------
    # View maintenance
    # ------------------------------------------------------------------

    def _view_rng(self):
        return self.rng("membership")

    def _sample(self, pool: Sequence[int], k: int, exclude: Set[int]) -> List[int]:
        eligible = [p for p in pool if p not in exclude and p != self.node_id]
        if len(eligible) <= k:
            return eligible
        return self._view_rng().sample(eligible, k)

    def _add_active(self, peer: int, notify: bool = True) -> None:
        if peer == self.node_id or peer in self.active:
            return
        if peer in self.passive:
            self.passive.remove(peer)
        cfg = self.view_config
        while len(self.active) >= cfg.active_size:
            victim = self.active[self._view_rng().randrange(len(self.active))]
            self._drop_active(victim, reason="evicted", demote=True,
                              disconnect=True, refill=False)
        self.active.append(peer)
        self.probe_missed.pop(peer, None)
        self.record("view.up", peer=peer)
        self.on_neighbor_up(peer)
        if notify:
            self.send(peer, ViewNeighbor(priority=len(self.active) == 1))

    def _drop_active(
        self,
        peer: int,
        reason: str,
        demote: bool,
        disconnect: bool,
        refill: bool = True,
    ) -> None:
        if peer not in self.active:
            return
        self.active.remove(peer)
        self.probe_missed.pop(peer, None)
        if disconnect:
            self.send(peer, ViewDisconnect())
        if demote:
            self._add_passive(peer)
        self.record("view.down", peer=peer, reason=reason)
        self.on_neighbor_down(peer)
        if refill:
            self._fill_active()

    def _add_passive(self, peer: int) -> None:
        if peer == self.node_id or peer in self.active or peer in self.passive:
            return
        cfg = self.view_config
        while len(self.passive) >= cfg.passive_size:
            self.passive.pop(self._view_rng().randrange(len(self.passive)))
        self.passive.append(peer)

    def _fill_active(self) -> None:
        """Promote a passive candidate when the active view is short.

        Optimistic: the candidate is only added once it accepts (its
        :class:`ViewNeighborReply`), so a dead fallback costs one probe
        round, not a view slot.
        """
        cfg = self.view_config
        if len(self.active) >= cfg.active_size:
            return
        candidates = [p for p in self.passive if p not in self.active]
        if not candidates:
            return
        peer = self._view_rng().choice(candidates)
        self.send(peer, ViewNeighbor(priority=not self.active))


__all__ = [
    "VIEW_STATE_FIELDS",
    "ViewConfig",
    "ViewJoin",
    "ViewForwardJoin",
    "ViewNeighbor",
    "ViewNeighborReply",
    "ViewDisconnect",
    "ViewShuffle",
    "ViewShuffleReply",
    "ViewProbe",
    "ViewProbeAck",
    "PartialViewMembership",
]
