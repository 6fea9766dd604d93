"""The CrystalBall runtime controller.

One :class:`CrystalBallRuntime` instance interposes on each node
(Figure 1): it periodically checkpoints the local service and gossips
the checkpoint to the neighborhood, folds received checkpoints and
latency measurements into the predictive model, periodically runs
consequence prediction over the assembled snapshot, installs event
filters to steer execution away from predicted violations, and resolves
exposed choices by sandbox replay + lookahead scoring against the
installed objective.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..choice.choicepoint import ChoicePoint
from ..choice.objectives import Objective
from ..mc import (
    ConsequencePredictor,
    DeliverAction,
    Explorer,
    InFlightMessage,
    PendingTimer,
    PredictionReport,
    WorldState,
    score_report,
    violated_properties,
)
from ..model import NetworkModel, StateModel
from ..obs import MetricsRegistry, stats_view
from ..statemachine import ChoiceRequested, InboundInterposer, SandboxContext
from ..statemachine.node import Node
from ..statemachine.serialization import freeze
from .checkpoints import (
    CheckpointAckMsg,
    CheckpointDeltaMsg,
    CheckpointMsg,
    ModelShareMsg,
    ProbeMsg,
    ProbeReplyMsg,
)
from .policy import AmortizedSteering
from .steering import EventFilter, SteeringModule


# Sandbox replays of one dispatch before giving up: each replay fills one
# more unscripted choice, so this bounds the choices a handler may make.
_MAX_REPLAY_FILLS = 32
# Per-candidate state budget of one amortized scored round: the value
# BENCH_T2.json's numbers were recorded with.
_POLICY_BUDGET = 240


class _ZeroObjective(Objective):
    """Neutral objective: only safety matters."""

    name = "zero"

    def score(self, world: Any) -> float:
        return 0.0


def _state_weight(values: Iterable[Any]) -> int:
    """Size proxy for a state: top-level container lengths summed."""
    return sum(
        len(value) if isinstance(value, (dict, list, tuple, set, frozenset))
        else 1
        for value in values
    )


class CrystalBallRuntime(InboundInterposer):
    """Per-node CrystalBall controller, model, and steering."""

    def __init__(
        self,
        node: Node,
        service_factory: Callable[[int], Any],
        neighbors_fn: Optional[Callable[[Node], Iterable[int]]] = None,
        properties: Iterable[Any] = (),
        objective: Optional[Objective] = None,
        checkpoint_period: float = 1.0,
        prediction_period: float = 0.0,
        chain_depth: int = 3,
        budget: int = 1_500,
        filter_ttl: float = 10.0,
        steering_enabled: bool = True,
        passive_measurement: bool = True,
        prediction_scope: str = "global",
        broadcast_on_change: bool = False,
        min_broadcast_interval: float = 0.05,
        checkpoint_deltas: bool = False,
        full_checkpoint_every: int = 5,
        model_share_period: float = 0.0,
        generic_node: Optional[object] = None,
        max_snapshot_age: Optional[float] = None,
        fallback: Optional[object] = None,
        steering_policy: bool = False,
    ) -> None:
        self.node = node
        self.service_factory = service_factory
        self.neighbors_fn = neighbors_fn
        self.properties = list(properties)
        self.objective = objective if objective is not None else _ZeroObjective()
        self.network_model = NetworkModel()
        self.checkpoint_period = checkpoint_period
        self.prediction_period = prediction_period
        self.chain_depth = chain_depth
        self.budget = budget
        self.filter_ttl = filter_ttl
        self.steering_enabled = steering_enabled
        # Passive measurement: fold message timestamps into the network
        # model (disable to freeze the model after bootstrap — the A4
        # ablation of model freshness under changing conditions).
        self.passive_measurement = passive_measurement
        # Prediction scope: "global" assembles every collected
        # checkpoint into the snapshot world (the paper's mode, fine at
        # tens of nodes); "neighborhood" restricts it to this node plus
        # its current neighbors, which is what keeps a prediction round
        # sub-second at 1,000+ nodes — O(view) sandbox services instead
        # of O(n).  With partial-view membership the two mostly agree
        # anyway (only neighbors send us checkpoints), but the slice
        # also sheds checkpoints lingering from ex-neighbors after
        # shuffles and caps the world when a full-mesh service runs
        # with an explicit neighbors_fn.
        if prediction_scope not in ("global", "neighborhood"):
            raise ValueError(
                f"prediction_scope must be 'global' or 'neighborhood', got {prediction_scope!r}"
            )
        self.prediction_scope = prediction_scope
        # Checkpoint-on-change (Figure 1's checkpoints accompanying
        # outbound messages): broadcast immediately when local state
        # moves, rate-limited to min_broadcast_interval.
        self.broadcast_on_change = broadcast_on_change
        self.min_broadcast_interval = min_broadcast_interval
        # Delta encoding (Section 3.3.2's communication-overhead limit):
        # deltas are diffed against the last full checkpoint each peer
        # *acknowledged*, with a periodic full as the rotation anchor.
        # A peer whose ack is outstanding keeps receiving fulls (the
        # resync fallback), so a delta is never diffed against state the
        # receiver provably lacks.
        self.checkpoint_deltas = checkpoint_deltas
        self.full_checkpoint_every = max(1, full_checkpoint_every)
        self._delta_baseline_state: Optional[Dict[str, Any]] = None
        self._delta_baseline_frozen: Dict[str, Any] = {}
        self._delta_baseline_epoch = -1
        self._deltas_since_full = 0
        self._peer_acked: Dict[int, int] = {}
        self.last_prediction_summary: Optional[Dict[str, Any]] = None
        self.model_share_period = model_share_period
        self.generic_node = generic_node
        # The cheap resolver prediction degrades to: per choice, when
        # the snapshot is older than max_snapshot_age (confidence
        # gating, Section 3.3.2 — no predicting from fiction); amortized,
        # on every choice no policy answers.
        self.max_snapshot_age = max_snapshot_age
        self.fallback = fallback
        self._last_state_digest: Optional[str] = None
        self._last_broadcast_at = float("-inf")
        # Reused across prediction passes: the explorer's service pool
        # amortizes factory runs, and the replay service amortizes the
        # per-candidate factory in resolve_choice.
        self._explorer: Optional[Explorer] = None
        self._replay_service: Optional[Any] = None

        self.state_model = StateModel(node.node_id)
        # All counters live in the runtime's own metrics registry;
        # ``stats`` remains the historical dict-shaped view over them.
        self.metrics = MetricsRegistry()
        self.steering = SteeringModule(metrics=self.metrics, node=node.node_id)
        self.epoch = 0
        self.stats = stats_view(
            self.metrics, "runtime",
            (
                "checkpoints_sent",
                "checkpoints_received",
                "predictions",
                "states_explored",
                "filters_installed",
                "steered_messages",
                "choices_resolved",
                "change_broadcasts",
                "delta_checkpoints_sent",
                "full_checkpoints_sent",
                "checkpoint_bytes_sent",
                "checkpoint_acks_sent",
                "resync_fulls_sent",
                "deltas_ignored",
                "model_shares_sent",
                "model_entries_adopted",
                "choices_fallback",
            ),
            node=node.node_id,
        )

        # Amortized prediction-driven steering (ROADMAP item 2): one
        # scored prediction round's ranking serves every choice sharing
        # its coarse scenario signature until it ages out or the world
        # changes.  AmortizedSteering itself raises ConfigurationError
        # when the required fallback is missing — at install time, not
        # mid-run.
        self.amortized: Optional[AmortizedSteering] = None
        if steering_policy:
            amortized = self.amortized = AmortizedSteering(
                fallback=fallback,
                score_fn=self._policy_score,
                cost_fn=self._policy_cost,
            )
            # Policy rankings and coalesced answers implicitly read
            # connectivity and liveness (which destinations are
            # reachable/up); neither is part of the scenario signature's
            # bucketed hints, so changes flush both.
            node.network.topology_listeners.append(
                lambda kind: amortized.invalidate(f"topology:{kind}"))
            node.network.liveness.subscribe(
                lambda node_id, is_up: amortized.invalidate("liveness"))

        node.inbound_interposers.append(self)
        node.crystalball = self
        # In amortized mode per-dispatch checkpointing is the dominant
        # cost at high event rates, so capture starts disarmed and the
        # scheduler arms it only while it is hungry for a scoring round.
        node.capture_dispatch = self.amortized is None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Record the initial checkpoint and begin the periodic tasks."""
        self._record_own_checkpoint()
        if self.checkpoint_period > 0:
            self.node.sim.schedule(
                self.checkpoint_period, self._checkpoint_tick,
                tag=f"cb.checkpoint:{self.node.node_id}",
            )
        if self.prediction_period > 0:
            self.node.sim.schedule(
                self.prediction_period, self._prediction_tick,
                tag=f"cb.predict:{self.node.node_id}",
            )
        if self.model_share_period > 0:
            self.node.sim.schedule(
                self.model_share_period, self._model_share_tick,
                tag=f"cb.modelshare:{self.node.node_id}",
            )
        if self.broadcast_on_change:
            self._last_state_digest = self.node.service.state_digest()

    def neighbors(self) -> List[int]:
        """The neighborhood to exchange checkpoints with.

        Order of preference: an explicit ``neighbors_fn``, the
        service's own ``neighbors()`` method (protocol knowledge,
        typically O(log n) in scalable systems), else every other node
        in the topology (the paper's full-global-knowledge mode).
        """
        if self.neighbors_fn is not None:
            return [p for p in self.neighbors_fn(self.node) if p != self.node.node_id]
        service_neighbors = getattr(self.node.service, "neighbors", None)
        if callable(service_neighbors):
            return [p for p in service_neighbors() if p != self.node.node_id]
        return [p for p in self.node.network.topology.node_ids if p != self.node.node_id]

    # ------------------------------------------------------------------
    # Interposition (Figure 1: runtime sits between network and service)
    # ------------------------------------------------------------------

    def on_inbound(self, node: Node, src: int, msg: Any) -> bool:
        now = node.sim.now
        if isinstance(msg, CheckpointMsg):
            self.stats["checkpoints_received"] += 1
            if self.passive_measurement:
                self.network_model.observe_latency(
                    src, node.node_id, max(0.0, now - msg.sent_at), now,
                )
            self.state_model.update(
                msg.sender, msg.epoch, msg.taken_at, msg.state, timers=msg.timers,
            )
            if msg.ack_requested:
                # Adopt this full as the sender's delta baseline and
                # acknowledge it — only if it actually stuck (a
                # reordered stale full must not be acked).
                adopted = self.state_model.set_baseline(msg.sender, msg.epoch)
                if adopted is not None:
                    node.network.send(
                        node.node_id, src,
                        CheckpointAckMsg(sender=node.node_id, epoch=msg.epoch),
                        size_bytes=64,
                    )
                    self.stats["checkpoint_acks_sent"] += 1
            return False
        if isinstance(msg, CheckpointDeltaMsg):
            self.stats["checkpoints_received"] += 1
            if self.passive_measurement:
                self.network_model.observe_latency(
                    src, node.node_id, max(0.0, now - msg.sent_at), now,
                )
            base = self.state_model.baseline(msg.sender)
            if base is None or base.epoch != msg.base_epoch:
                # We lack the delta's base: skip; the sender keeps
                # sending fulls until our baseline ack reaches it.
                self.stats["deltas_ignored"] += 1
                return False
            patched = dict(base.state)
            patched.update(msg.changed)
            self.state_model.update(
                msg.sender, msg.epoch, msg.taken_at, patched, timers=msg.timers,
            )
            return False
        if isinstance(msg, CheckpointAckMsg):
            current = self._peer_acked.get(msg.sender, -1)
            if msg.epoch > current:
                self._peer_acked[msg.sender] = msg.epoch
            return False
        if isinstance(msg, ModelShareMsg):
            adopted = self.network_model.import_entries(msg.entries)
            self.stats["model_entries_adopted"] += adopted
            return False
        if isinstance(msg, ProbeMsg):
            node.network.send(
                node.node_id, src,
                ProbeReplyMsg(sender=node.node_id, orig_sent_at=msg.sent_at),
                size_bytes=64,
            )
            return False
        if isinstance(msg, ProbeReplyMsg):
            if self.passive_measurement:
                self.network_model.observe_rtt(
                    node.node_id, src, max(0.0, now - msg.orig_sent_at), now,
                )
            return False
        matched = self.steering.matches(src, msg, now)
        if matched is not None:
            self.stats["steered_messages"] += 1
            node.sim.trace.record(
                now, "runtime.steer", node=node.node_id, src=src,
                msg=type(msg).__name__, reason=matched.reason,
            )
            # The explanation record is emitted with identical data in
            # both tracing modes (trace digests must not depend on the
            # causal flag); the happens-before chain of the offending
            # message rides in the causal stamp only.
            tracer = node.sim.causal
            if tracer is not None:
                tracer.annotate_next(
                    chain=tracer.chain_ids(tracer.current_event_id()),
                )
            node.sim.trace.record(
                now, "runtime.steer.explain", node=node.node_id, src=src,
                msg=type(msg).__name__, reason=matched.reason,
                predicted=list(matched.predicted_path),
            )
            node.network.break_connection(node.node_id, src)
            return False
        return True

    # ------------------------------------------------------------------
    # Periodic tasks
    # ------------------------------------------------------------------

    def _sim_clock(self) -> float:
        return self.node.sim.now

    def _own_timers(self) -> list:
        now = self.node.sim.now
        return [
            (name, max(0.0, deadline - now), payload)
            for name, deadline, payload in self.node.pending_timers()
        ]

    def _record_own_checkpoint(self) -> None:
        now = self.node.sim.now
        # The model copies what it stores, so it is handed the live
        # fields; a checkpoint() here would be a second copy.
        self.state_model.update(
            self.node.node_id, self.epoch, now, self.node.service.live_state(),
            timers=self._own_timers(),
        )

    def _checkpoint_tick(self) -> None:
        if self.node.is_up:
            self.broadcast_checkpoint()
        self.node.sim.schedule(
            self.checkpoint_period, self._checkpoint_tick,
            tag=f"cb.checkpoint:{self.node.node_id}",
        )

    def broadcast_checkpoint(self) -> None:
        """Take a checkpoint and send it (full or delta) to every neighbor."""
        now = self.node.sim.now
        self.epoch += 1
        with self.metrics.span(
            "runtime.checkpoint_broadcast", clock=self._sim_clock,
            node=self.node.node_id,
        ):
            # Snapshot the service exactly once per broadcast: the same
            # state feeds the local state model (which deep-copies on
            # update) and the outbound messages.
            state = self.node.service.checkpoint()
            timers = self._own_timers()
            self.state_model.update(
                self.node.node_id, self.epoch, now, state, timers=timers,
            )
            if not self.checkpoint_deltas:
                message = CheckpointMsg(
                    sender=self.node.node_id, epoch=self.epoch,
                    taken_at=now, sent_at=now, state=state, timers=timers,
                )
                peers = self.neighbors()
                size = message.wire_size()
                # Batched fan-out: one queue insertion per distinct
                # arrival time instead of one per peer (see
                # Network.send_many).
                # NOTE: on a forwarding wrapper (ReliableLayer) this
                # instance lookup finds the RAW network's send_many, so
                # full checkpoints bypass the at-least-once layer.
                # Node.broadcast_out asks the transport's class instead;
                # this one is left as is on purpose, because routing
                # checkpoints through the wrapper changes A7's
                # reliable-variant traffic and its recorded numbers.
                self.node.network.send_many(self.node.node_id, peers, message, size_bytes=size)
                self.stats["checkpoints_sent"] += len(peers)
                self.stats["checkpoint_bytes_sent"] += size * len(peers)
                return
            rotate = (
                self._delta_baseline_state is None
                or self._deltas_since_full >= self.full_checkpoint_every
            )
            if rotate:
                # This broadcast is the new baseline every peer must
                # ack before it can receive deltas again.
                self._delta_baseline_state = state
                self._delta_baseline_frozen = {
                    key: freeze(value) for key, value in state.items()
                }
                self._delta_baseline_epoch = self.epoch
                self._deltas_since_full = 0
                changed = None
            else:
                self._deltas_since_full += 1
                frozen_base = self._delta_baseline_frozen
                changed = {
                    key: value for key, value in state.items()
                    if freeze(value) != frozen_base.get(key)
                }
            full = delta = None
            for peer in self.neighbors():
                if rotate or self._peer_acked.get(peer) != self._delta_baseline_epoch:
                    # The peer has not acked the current baseline (or a
                    # rotation just happened): it gets a full and is
                    # asked to adopt it.  Off-rotation fulls are the
                    # resync fallback for missed baselines.
                    if full is None:
                        full = CheckpointMsg(
                            sender=self.node.node_id, epoch=self.epoch,
                            taken_at=now, sent_at=now, state=state,
                            timers=timers, ack_requested=True,
                        )
                    self._send_checkpoint(peer, full)
                    self.stats["full_checkpoints_sent"] += 1
                    if not rotate:
                        self.stats["resync_fulls_sent"] += 1
                else:
                    if delta is None:
                        delta = CheckpointDeltaMsg(
                            sender=self.node.node_id, epoch=self.epoch,
                            base_epoch=self._delta_baseline_epoch,
                            taken_at=now, sent_at=now, changed=changed,
                            timers=timers,
                        )
                    self._send_checkpoint(peer, delta)
                    self.stats["delta_checkpoints_sent"] += 1
            if rotate:
                # A peer's ack from a *previous* baseline epoch must not
                # qualify it for deltas against this one; fulls just went
                # out, so acks will refresh the map.
                self._peer_acked = {
                    peer: epoch for peer, epoch in self._peer_acked.items()
                    if epoch == self._delta_baseline_epoch
                }

    def _send_checkpoint(self, peer: int, message: Any) -> None:
        size = message.wire_size()
        self.node.network.send(self.node.node_id, peer, message, size_bytes=size)
        self.stats["checkpoints_sent"] += 1
        self.stats["checkpoint_bytes_sent"] += size

    def after_dispatch(self, node: Node) -> None:
        """Broadcast a fresh checkpoint when local state changed.

        Called by the node after every dispatch (InboundInterposer
        hook).  This closes most of the staleness window that periodic
        exchange leaves open — the ablation bench ``bench_a1_staleness``
        measures the difference.
        """
        if not self.broadcast_on_change or not node.is_up:
            return
        now = node.sim.now
        if now - self._last_broadcast_at < self.min_broadcast_interval:
            return
        digest_now = node.service.state_digest()
        if digest_now == self._last_state_digest:
            return
        self._last_state_digest = digest_now
        self._last_broadcast_at = now
        self.stats["change_broadcasts"] += 1
        self.broadcast_checkpoint()

    def _model_share_tick(self) -> None:
        if self.node.is_up:
            self.share_model()
        self.node.sim.schedule(
            self.model_share_period, self._model_share_tick,
            tag=f"cb.modelshare:{self.node.node_id}",
        )

    def share_model(self) -> None:
        """Send this node's network-model estimates to every neighbor."""
        entries = self.network_model.export_entries()
        if not entries:
            return
        for peer in self.neighbors():
            msg = ModelShareMsg(sender=self.node.node_id, entries=entries)
            self.node.network.send(self.node.node_id, peer, msg, size_bytes=msg.wire_size())
            self.stats["model_shares_sent"] += 1

    def probe(self, peer: int) -> None:
        """Send an active RTT probe to ``peer``."""
        now = self.node.sim.now
        self.node.network.send(
            self.node.node_id, peer, ProbeMsg(sender=self.node.node_id, sent_at=now),
            size_bytes=64,
        )

    def _prediction_tick(self) -> None:
        if self.node.is_up:
            self.run_prediction()
        self.node.sim.schedule(
            self.prediction_period, self._prediction_tick,
            tag=f"cb.predict:{self.node.node_id}",
        )

    # ------------------------------------------------------------------
    # Consequence prediction + steering
    # ------------------------------------------------------------------

    def current_world(self) -> WorldState:
        """Assemble the snapshot world from the state model.

        The local state is always fresh; neighbor states are the latest
        collected checkpoints.  Nodes the local failure detector (here:
        the liveness registry, a simulation convenience) believes down
        are marked down in the world.
        """
        self._record_own_checkpoint()
        states = self.state_model.latest_states()
        if self.prediction_scope == "neighborhood":
            keep = set(self.neighbors())
            keep.add(self.node.node_id)
            states = {nid: st for nid, st in states.items() if nid in keep}
        down = {nid for nid in states if not self.node.network.liveness.is_up(nid)}
        # Every known node's pending timers: our own are live; neighbors'
        # come from their collected checkpoints (possibly stale, like the
        # state itself — prediction is best-effort by design).
        timers = []
        for nid in states:
            if nid in down:
                continue
            for name, delay, payload in self.state_model.timers_of(nid):
                timers.append(PendingTimer(node=nid, name=name, payload=payload,
                                           delay=max(0.0, delay)))
        # latest_states() shares the model's stored checkpoints, which
        # nothing mutates; the world adopts them under the same contract.
        return WorldState(
            node_states=states, timers=timers, down=down, time=self.node.sim.now,
            copy_states=False,
        )

    def make_explorer(self) -> Explorer:
        """The explorer configured with this runtime's model and properties.

        One instance is reused across prediction passes so its service
        pool stays warm (the model/property references it holds are
        live and track runtime updates).
        """
        if self._explorer is None:
            self._explorer = Explorer(
                self.service_factory,
                properties=self.properties,
                network_model=self.network_model,
                generic_node=self.generic_node,
                rng_seed=self.node.sim.rng.root_seed,
            )
        return self._explorer

    def run_prediction(self) -> PredictionReport:
        """One consequence-prediction pass over the current snapshot."""
        predictor = ConsequencePredictor(
            self.make_explorer(), chain_depth=self.chain_depth, budget=self.budget,
            metrics=self.metrics,
        )
        with self.metrics.span(
            "runtime.predict", clock=self._sim_clock, node=self.node.node_id,
        ):
            world = self.current_world()
            report = predictor.predict(world)
        self.stats["predictions"] += 1
        self.stats["states_explored"] += report.total_states
        self.last_prediction_summary = report.summary()
        if self.steering_enabled:
            self._apply_steering(report, world)
        return report

    def _apply_steering(self, report: PredictionReport, world: WorldState) -> None:
        unsafe = [o for o in report.outcomes if not o.is_safe]
        if not unsafe:
            return
        # CrystalBall "checks whether it is safe to steer execution away
        # from the possible inconsistency": our steering actions (drop
        # message + break connection) only *remove* behaviours, so
        # steering is safe exactly when the present state already
        # satisfies every property — then holding position cannot
        # introduce a new inconsistency.
        violated = violated_properties(world, self.properties)
        if violated:
            self.node.sim.trace.record(
                self.node.sim.now, "runtime.steer_impossible", node=self.node.node_id,
                unsafe=len(unsafe),
            )
            return
        now = self.node.sim.now
        for outcome in unsafe:
            for violation in outcome.violations:
                # We can only prevent events at this node: filter the
                # last inbound delivery to us on the violating path.
                local_deliveries = [
                    a for a in violation.path
                    if isinstance(a, DeliverAction) and a.dst == self.node.node_id
                ]
                if not local_deliveries:
                    continue
                action = local_deliveries[-1]
                newly_installed = self.steering.install(
                    EventFilter(
                        src=action.src,
                        msg_key=freeze(action.msg),
                        msg_type=None,
                        installed_at=now,
                        expires_at=now + self.filter_ttl,
                        reason=violation.property_name,
                        predicted_path=tuple(a.describe() for a in violation.path),
                    )
                )
                # A repeated prediction of the same violation merely
                # refreshes the existing filter's TTL; only genuinely
                # new filters count as installations.
                if newly_installed:
                    self.stats["filters_installed"] += 1
                    # A new filter changes what future deliveries reach
                    # the service: rankings distilled without it are no
                    # longer trustworthy.
                    if self.amortized is not None:
                        self.amortized.invalidate("steering")
                self.node.sim.trace.record(
                    now, "runtime.filter_installed", node=self.node.node_id,
                    src=action.src, msg=type(action.msg).__name__,
                    reason=violation.property_name,
                )

    # ------------------------------------------------------------------
    # Predictive choice resolution
    # ------------------------------------------------------------------

    def resolve_choice(self, point: ChoicePoint, node: Node) -> Any:
        """Pick the candidate whose predicted future scores best.

        Replays the currently-executing dispatch in a sandbox from its
        pre-dispatch checkpoint, substituting each candidate at the
        pending choice, then runs consequence prediction on the
        resulting world and scores it with the installed objective.

        With ``steering_policy`` enabled the amortized scheduler runs
        instead: most choices answer from the coalescing cache or a
        policy ranking distilled from an earlier scored round, and only
        budgeted misses pay for prediction (see
        :class:`~repro.runtime.policy.AmortizedSteering`).
        """
        if self.amortized is not None:
            with self.metrics.span(
                "runtime.choice", clock=self._sim_clock, node=self.node.node_id,
            ):
                value, source = self.amortized.resolve_explain(point, node)
            self.stats["choices_resolved"] += 1
            if source == "fallback":
                self.stats["choices_fallback"] += 1
            return value
        dispatch = node.current_dispatch
        if dispatch is None:
            # No dispatch to replay (e.g. choice made in on_init), so
            # nothing distinguishes the candidates.
            return point.candidates[0]
        if self._snapshot_too_stale():
            # Confidence gating: the model is too old to predict from;
            # degrade to the cheap fallback instead of guessing.
            self.stats["choices_fallback"] += 1
            if self.fallback is not None:
                return self.fallback.resolve(point, node)
            return point.candidates[0]
        best = point.candidates[0]
        best_score = float("-inf")
        with self.metrics.span(
            "runtime.choice", clock=self._sim_clock, node=self.node.node_id,
        ):
            for candidate in point.candidates:
                score = self._score_candidate(dispatch, candidate)
                node.sim.trace.record(
                    node.sim.now, "runtime.choice_score", node=node.node_id,
                    label=point.label, score=round(score, 6),
                )
                if score > best_score:
                    best, best_score = candidate, score
        self.stats["choices_resolved"] += 1
        return best

    def _snapshot_too_stale(self) -> bool:
        if self.max_snapshot_age is None:
            return False
        now = self.node.sim.now
        ages = [
            self.state_model.age(nid, now)
            for nid in self.state_model.known_nodes()
            if nid != self.node.node_id
            and self.node.network.liveness.is_up(nid)
        ]
        if not ages:
            return True  # nothing collected yet: no basis to predict
        return max(ages) > self.max_snapshot_age

    def _policy_score(self, point: ChoicePoint, node: Node):
        """One scored prediction round for the amortized policy.

        Scores every candidate by sandbox replay + consequence
        prediction (bounded by the smaller ``_POLICY_BUDGET``) and
        returns ``(ranking, states_explored)`` — or ``None`` when the
        current dispatch was not captured, in which case the scheduler
        arms capture and falls back for now.
        """
        dispatch = node.current_dispatch
        if dispatch is None:
            return None
        before = self.stats["states_explored"]
        scored = []
        weight = self._checkpoint_weight(dispatch)
        with self.metrics.span("runtime.policy_score", node=self.node.node_id):
            for candidate in point.candidates:
                score = self._score_candidate(dispatch, candidate, budget=_POLICY_BUDGET)
                scored.append((candidate, score))
        # Stable sort: candidates tied on score keep application order,
        # matching the per-choice path's strict-improvement rule.
        scored.sort(key=lambda pair: pair[1], reverse=True)
        # Charge what a round actually costs: predicted states PLUS the
        # checkpoint weight per replayed candidate.  Sandbox replay
        # copies the whole captured state twice per candidate, so on
        # services whose state grows with committed work (decided logs)
        # the real cost is O(state), not O(states explored) — weighing
        # it in makes the rate budget self-concentrate scoring early,
        # when state is small, and throttle it as the log grows.
        cost = (
            self.stats["states_explored"] - before
            + weight * len(point.candidates)
        )
        node.sim.trace.record(
            node.sim.now, "runtime.policy_distilled", node=node.node_id,
            label=point.label, states=cost,
        )
        return tuple(scored), cost

    @staticmethod
    def _checkpoint_weight(dispatch) -> int:
        """Size proxy for one captured state: container lengths summed."""
        return _state_weight(dispatch.checkpoint.values())

    def _policy_cost(self, point: ChoicePoint, node: Node) -> Optional[int]:
        """Projected cost of scoring ``point`` now, for budget admission.

        The weight term dominates a round's bill once the service's
        state has grown, and it is knowable *before* capturing or
        replaying anything: with no dispatch captured yet, the *live*
        state fields give the same size proxy for free.  Denying up
        front matters twice over — an unaffordable round is never
        replayed, and (because denial precedes the defer-and-arm path)
        capture is never armed for it, so the node does not pay the
        O(state) pre-dispatch snapshot either.
        """
        dispatch = node.current_dispatch
        if dispatch is not None:
            weight = self._checkpoint_weight(dispatch)
        else:
            service = getattr(node, "service", None)
            fields = getattr(service, "state_fields", None)
            if not fields:
                return None
            weight = _state_weight(getattr(service, name) for name in fields)
        return weight * len(point.candidates)

    def _score_candidate(
        self, dispatch, candidate: Any, budget: Optional[int] = None,
    ) -> float:
        effects, checkpoint = self._replay(dispatch, candidate)
        if effects is None:
            return float("-inf")
        states = self.state_model.latest_states()
        states[self.node.node_id] = checkpoint
        down = {nid for nid in states if not self.node.network.liveness.is_up(nid)}
        world = WorldState(
            node_states=states,
            inflight=[
                InFlightMessage(self.node.node_id, dst, msg) for dst, msg in effects.sent
            ],
            timers=[
                PendingTimer(self.node.node_id, name, payload, delay)
                for name, delay, payload in effects.timers_set
            ],
            down=down,
            time=self.node.sim.now,
            copy_states=False,
        )
        immediate = self.objective.score(world)
        predictor = ConsequencePredictor(
            self.make_explorer(), chain_depth=self.chain_depth,
            budget=self.budget if budget is None else budget,
            metrics=self.metrics,
        )
        report = predictor.predict(world)
        self.stats["states_explored"] += report.total_states
        self.last_prediction_summary = report.summary()
        return immediate + score_report(report, self.objective)

    def _replay(self, dispatch, candidate: Any):
        """Re-run the captured dispatch with ``candidate`` at the pending
        choice; later unscripted choices are filled first-candidate."""
        script = list(dispatch.choices) + [candidate]
        for _ in range(_MAX_REPLAY_FILLS):
            service = self._replay_service
            if service is None:
                service = self.service_factory(self.node.node_id)
                self._replay_service = service
            service.restore(dispatch.checkpoint)
            ctx = SandboxContext(
                self.node.node_id, now=self.node.sim.now,
                choice_script=list(script), rng_seed=self.node.sim.rng.root_seed,
            )
            service.ctx = ctx
            try:
                if dispatch.kind == "deliver":
                    service.deliver(dispatch.src, dispatch.msg)
                else:
                    service.fire_timer(dispatch.timer_name, dispatch.payload)
            except ChoiceRequested as request:
                script = list(request.consumed) + [request.point.candidates[0]]
                continue
            return ctx.effects, service.checkpoint()
        return None, None


__all__ = ["CrystalBallRuntime"]
