"""The CrystalBall runtime controller.

One :class:`CrystalBallRuntime` instance interposes on each node
(Figure 1).  Its :class:`~repro.runtime.checkpoints.CheckpointExchange`
gossips checkpoints with the neighborhood and folds what arrives into
the predictive model; the runtime itself periodically runs consequence
prediction over the latest checkpoints, installs event filters to steer
execution away from predicted violations, and resolves exposed choices
by sandbox replay + lookahead scoring against the installed objective.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..choice.choicepoint import ChoicePoint, ConfigurationError
from ..choice.objectives import Objective
from ..choice.resolvers import FirstResolver
from ..mc import (
    ConsequencePredictor,
    DeliverAction,
    Explorer,
    PendingTimer,
    PredictionReport,
    WorldState,
    score_report,
    violated_properties,
)
from ..mc.explorer import effect_events
from ..model import NetworkModel, StateModel
from ..obs import MetricsRegistry, stats_view
from ..statemachine import ChoiceRequested, InboundInterposer
from ..statemachine.node import Cluster, Node
from ..statemachine.serialization import freeze
from .checkpoints import RUNTIME_MESSAGE_TYPES, CheckpointExchange, schedule_every
from .policy import AmortizedSteering
from .steering import EventFilter, SteeringModule


# Sandbox replays of one dispatch before giving up: each replay fills one
# more unscripted choice, so this bounds the choices a handler may make.
_MAX_REPLAY_FILLS = 32
# Per-candidate state budget of one amortized scored round: the value
# BENCH_T2.json's numbers were recorded with.
_POLICY_BUDGET = 240
# Why a choice was answered by the fallback instead of a prediction, one
# counter each (``runtime.degraded.<reason>``).  Per choice: no captured
# dispatch to replay, a snapshot older than max_snapshot_age, every
# candidate's replay exhausted, or the prediction raised.  Amortized:
# the scheduler's reasons (see AmortizedSteering).  A
# periodic prediction round that raised is skipped, not answered.
DEGRADE_REASONS = (
    "no_dispatch", "stale_snapshot", "replay_exhausted", "prediction_error",
    "denied", "deferred", "budget", "unranked", "round_skipped",
)


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
        properties: Iterable[Any] = (),
        objective: Optional[Objective] = None,
        checkpoint_period: float = 1.0,
        prediction_period: float = 0.0,
        chain_depth: int = 3,
        budget: int = 1_500,
        filter_ttl: float = 10.0,
        passive_measurement: bool = True,
        prediction_scope: str = "global",
        broadcast_on_change: bool = False,
        checkpoint_deltas: bool = False,
        model_share_period: float = 0.0,
        generic_node: Optional[object] = None,
        max_snapshot_age: Optional[float] = None,
        fallback: Any = FirstResolver(),
        steering_policy: bool = False,
    ) -> None:
        self.node = node
        self.service_factory = service_factory
        self.properties = list(properties)
        self.objective = objective if objective is not None else _ZeroObjective()
        self.network_model = NetworkModel()
        self.prediction_period = prediction_period
        self.chain_depth = chain_depth
        self.budget = budget
        self.filter_ttl = filter_ttl
        # Prediction scope: "global" assembles every collected
        # checkpoint into the snapshot world (the paper's mode, fine at
        # tens of nodes); "neighborhood" restricts it to this node plus
        # its current neighbors, which is what keeps a prediction round
        # sub-second at 1,000+ nodes — O(view) sandbox services instead
        # of O(n).  With partial-view membership the two mostly agree
        # anyway (only neighbors send us checkpoints), but the slice
        # also sheds checkpoints lingering from ex-neighbors after
        # shuffles.
        if prediction_scope not in ("global", "neighborhood"):
            raise ValueError(
                f"prediction_scope must be 'global' or 'neighborhood', got {prediction_scope!r}"
            )
        self.prediction_scope = prediction_scope
        self.last_prediction_summary: Optional[Dict[str, Any]] = None
        self.generic_node = generic_node
        # Confidence gating (Section 3.3.2): no predicting from a
        # snapshot older than this.
        self.max_snapshot_age = max_snapshot_age
        # The one resolver every choice prediction cannot answer degrades
        # to (see _degrade), checked here rather than at the first miss.
        # FirstResolver keeps no state, so one default instance serves
        # every runtime.
        if not callable(getattr(fallback, "resolve", None)):
            raise ConfigurationError(
                "CrystalBallRuntime requires a fallback resolver with a "
                f".resolve(point, node) method, got {fallback!r}; omit the "
                "argument to use FirstResolver"
            )
        self.fallback = fallback
        # Reused across prediction passes and dispatch replays: the
        # explorer's service pool amortizes factory runs.
        self._explorer: Optional[Explorer] = None

        self.state_model = StateModel(node.node_id)
        # All counters live in the runtime's own metrics registry;
        # ``stats`` remains the historical dict-shaped view over them.
        self.metrics = MetricsRegistry()
        self.steering = SteeringModule(metrics=self.metrics, node=node.node_id)
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
                *(f"degraded.{reason}" for reason in DEGRADE_REASONS),
            ),
            node=node.node_id,
        )
        # Checkpoint exchange (Figure 1's first box): every runtime
        # message goes there.  Checkpoint-on-change stands for Figure
        # 1's checkpoints accompanying outbound messages.
        self.exchange = CheckpointExchange(
            node, self.state_model, self.network_model, self.stats,
            trigger=self.broadcast_checkpoint,
            checkpoint_period=checkpoint_period,
            model_share_period=model_share_period,
            passive_measurement=passive_measurement,
            deltas=checkpoint_deltas,
            on_change=broadcast_on_change,
        )

        # Amortized prediction-driven steering (ROADMAP item 2): one
        # scored prediction round's ranking serves every choice sharing
        # its coarse scenario signature until it ages out or the world
        # changes.  Its misses degrade through this runtime's fallback.
        self.amortized: Optional[AmortizedSteering] = None
        if steering_policy:
            amortized = self.amortized = AmortizedSteering(
                degrade=self._degrade,
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

    def start(self) -> None:
        """Start the checkpoint exchange and the periodic prediction."""
        self.exchange.start()
        if self.prediction_period > 0:
            schedule_every(self.node, self.prediction_period, self.run_prediction,
                           f"cb.predict:{self.node.node_id}")

    # ------------------------------------------------------------------
    # Interposition (Figure 1: runtime sits between network and service)
    # ------------------------------------------------------------------

    def on_inbound(self, node: Node, src: int, msg: Any) -> bool:
        if isinstance(msg, RUNTIME_MESSAGE_TYPES):
            self.exchange.receive(src, msg)
            return False
        now = node.sim.now
        matched = self.steering.matches(src, msg, now)
        if matched is None:
            return True
        self.stats["steered_messages"] += 1
        node.sim.trace.record(
            now, "runtime.steer", node=node.node_id, src=src,
            msg=type(msg).__name__, reason=matched.reason,
        )
        # The explanation record is emitted with identical data in both
        # tracing modes (trace digests must not depend on the causal
        # flag); the happens-before chain of the offending message rides
        # in the causal stamp only.
        tracer = node.sim.causal
        if tracer is not None:
            tracer.annotate_next(chain=tracer.chain_ids(tracer.current_event_id()))
        node.sim.trace.record(
            now, "runtime.steer.explain", node=node.node_id, src=src,
            msg=type(msg).__name__, reason=matched.reason,
            predicted=list(matched.predicted_path),
        )
        node.network.break_connection(node.node_id, src)
        return False

    def after_dispatch(self, node: Node) -> None:
        self.exchange.after_dispatch()

    def broadcast_checkpoint(self) -> None:
        """Take a checkpoint and send it to every neighbor (the entry
        point of every broadcast: see :class:`CheckpointExchange`)."""
        with self.metrics.span(
            "runtime.checkpoint_broadcast", clock=self._sim_clock,
            node=self.node.node_id,
        ):
            self.exchange.broadcast()

    def _sim_clock(self) -> float:
        return self.node.sim.now

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
        self.exchange.record_own_checkpoint()
        states = self.state_model.latest_states()
        if self.prediction_scope == "neighborhood":
            keep = set(self.exchange.neighbors())
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

        One instance is reused across prediction passes and dispatch
        replays so its service pool stays warm (the model/property
        references it holds are live and track runtime updates).
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

    def run_prediction(self) -> Optional[PredictionReport]:
        """One consequence-prediction pass over the current snapshot.

        A pass whose prediction raises is skipped: no steering comes
        from it, it is counted as ``degraded.round_skipped``, and None
        is returned.
        """
        predictor = ConsequencePredictor(
            self.make_explorer(), chain_depth=self.chain_depth, budget=self.budget,
            metrics=self.metrics,
        )
        with self.metrics.span(
            "runtime.predict", clock=self._sim_clock, node=self.node.node_id,
        ):
            try:
                world = self.current_world()
                report = predictor.predict(world)
            except ChoiceRequested:
                raise
            except Exception:
                self.stats["degraded.round_skipped"] += 1
                return None
        self.stats["predictions"] += 1
        self.stats["states_explored"] += report.total_states
        self.last_prediction_summary = report.summary()
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

    def resolve(self, point: ChoicePoint, node: Node) -> Any:
        """The node's choice resolver (``install_crystalball`` sets it).

        A per-choice runtime with no captured dispatch has nothing to
        replay, so the choice degrades before any prediction starts.
        """
        if self.amortized is None and node.current_dispatch is None:
            return self._degrade("no_dispatch", point, node)
        return self.resolve_choice(point, node)

    def resolve_choice(self, point: ChoicePoint, node: Node) -> Any:
        """Pick the candidate whose predicted future scores best.

        Replays the currently-executing dispatch in a sandbox from its
        pre-dispatch checkpoint, substituting each candidate at the
        pending choice, then runs consequence prediction on the
        resulting world and scores it with the installed objective.
        :meth:`resolve` has checked that a dispatch was captured.  A
        choice prediction cannot answer degrades (see ``_degrade``).

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
                value = self.amortized.resolve(point, node)
            self.stats["choices_resolved"] += 1
            return value
        dispatch = node.current_dispatch
        if self._snapshot_too_stale():
            return self._degrade("stale_snapshot", point, node)
        self.stats["choices_resolved"] += 1
        best, best_score = None, float("-inf")
        with self.metrics.span(
            "runtime.choice", clock=self._sim_clock, node=self.node.node_id,
        ):
            try:
                for candidate in point.candidates:
                    score = self._score_candidate(dispatch, candidate)
                    node.sim.trace.record(
                        node.sim.now, "runtime.choice_score", node=node.node_id,
                        label=point.label, score=round(score, 6),
                    )
                    if score > best_score:
                        best, best_score = candidate, score
            except ChoiceRequested:
                raise
            except Exception:
                return self._degrade("prediction_error", point, node)
        if best_score == float("-inf"):
            return self._degrade("replay_exhausted", point, node)
        return best

    def _degrade(self, reason: str, point: ChoicePoint, node: Optional[Node]) -> Any:
        """The one exit for a choice prediction cannot answer: count it
        as ``degraded.<reason>`` and let the fallback resolve it."""
        self.stats[f"degraded.{reason}"] += 1
        return self.fallback.resolve(point, node)

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
        weight = _state_weight(dispatch.checkpoint.values())
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
            weight = _state_weight(dispatch.checkpoint.values())
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
        replayed = self._replay(dispatch, candidate)
        if replayed is None:
            return float("-inf")
        checkpoint, effects, _ = replayed
        states = self.state_model.latest_states()
        states[self.node.node_id] = checkpoint
        down = {nid for nid in states if not self.node.network.liveness.is_up(nid)}
        # The replay's sends and armed timers are the world's only
        # events; the timers it cancelled were never in it.
        sent, _, armed = effect_events(self.node.node_id, effects)
        world = WorldState(
            node_states=states, inflight=sent, timers=armed, down=down,
            time=self.node.sim.now, copy_states=False,
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
        choice through the explorer's sandbox step, filling later
        unscripted choices with their first candidate: ``(checkpoint,
        effects, time_read)``, or None when the fills run out."""
        explorer = self.make_explorer()
        script = list(dispatch.choices) + [candidate]
        for _ in range(_MAX_REPLAY_FILLS):
            try:
                return explorer.sandbox_step(
                    self.node.node_id, dispatch.checkpoint, dispatch.event,
                    self.node.sim.now, script,
                )
            except ChoiceRequested as request:
                script = list(request.consumed) + [request.point.candidates[0]]
        return None


def install_crystalball(
    cluster: Cluster,
    service_factory: Callable[[int], Any],
    set_resolver: bool = True,
    start: bool = True,
    **runtime_kwargs: Any,
) -> List[CrystalBallRuntime]:
    """Install a CrystalBall runtime on every node of a cluster.

    ``service_factory`` must build services identical in configuration
    to the live ones (it is used to materialize checkpoints during
    exploration).  With ``set_resolver`` each node's runtime becomes its
    choice resolver: choices are predicted, and every choice prediction
    cannot answer goes to the runtime's ``fallback`` and is counted
    under ``runtime.degraded.<reason>``.  Extra keyword arguments are
    passed to every :class:`CrystalBallRuntime`.
    """
    runtimes = []
    for node in cluster.nodes:
        runtime = CrystalBallRuntime(node, service_factory, **runtime_kwargs)
        if set_resolver:
            node.choice_resolver = runtime
        if start:
            runtime.start()
        runtimes.append(runtime)
    return runtimes


__all__ = ["CrystalBallRuntime", "DEGRADE_REASONS", "install_crystalball"]
