"""The CrystalBall runtime controller.

One :class:`CrystalBallRuntime` instance interposes on each node and
wires one owner per Figure 1 box: the checkpoint exchange
(:mod:`.checkpoints`), steering (:mod:`.steering`) and exposed choices
(:mod:`.resolution`).  It runs the prediction engine they share.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..choice.choicepoint import ChoicePoint
from ..choice.objectives import Objective
from ..choice.resolvers import FirstResolver
from ..mc import (
    ConsequencePredictor,
    Explorer,
    PendingTimer,
    PredictionReport,
    WorldState,
    score_report,
)
from ..mc.explorer import effect_events
from ..model import NetworkModel, StateModel
from ..obs import Counter, MetricsRegistry
from ..statemachine import ChoiceRequested, InboundInterposer
from ..statemachine.node import Cluster, Node
from .checkpoints import RUNTIME_MESSAGE_TYPES, CheckpointExchange
from .resolution import DEGRADE_REASONS, AmortizedResolver, PerChoiceResolver
from .steering import SteeringModule, steer


# Sandbox replays of one dispatch before giving up: each replay fills one
# more unscripted choice, so this bounds the choices a handler may make.
_MAX_REPLAY_FILLS = 32
# The keys of ``stats``: each is the ``runtime.<key>`` counter (labelled
# ``node``) of the runtime's registry, written by one owner — the
# runtime, the checkpoint exchange, the steering module or the resolver.
_STATS_KEYS = (
    "checkpoints_sent", "checkpoints_received", "predictions", "states_explored",
    "filters_installed", "steered_messages", "choices_resolved", "checkpoint_bytes_sent",
    *(f"degraded.{reason}" for reason in DEGRADE_REASONS),
)


class _ZeroObjective(Objective):
    """Neutral objective: only safety matters."""

    name = "zero"

    def score(self, world: Any) -> float:
        return 0.0


class CrystalBallRuntime(InboundInterposer):
    """Per-node CrystalBall runtime: the wiring of Figure 1's boxes, the
    interposition every message passes, and the prediction engine."""

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
        passive_measurement: bool = True,
        prediction_scope: str = "global",
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
        # Prediction scope: "global" assembles every collected
        # checkpoint into the snapshot world (the paper's mode, fine at
        # tens of nodes); "neighborhood" restricts it to this node plus
        # its current neighbors, which is what keeps a prediction round
        # sub-second at 1,000+ nodes — O(view) sandbox services instead
        # of O(n).  With partial-view membership the two mostly agree
        # anyway (only neighbors send us checkpoints), but the slice
        # also sheds checkpoints lingering from ex-neighbors after
        # shuffles.  The slice assumes that nobody outside it sends
        # anything: the predicted world holds no node, message or timer
        # beyond it, so no outside message reaches it.
        if prediction_scope not in ("global", "neighborhood"):
            raise ValueError(
                f"prediction_scope must be 'global' or 'neighborhood', got {prediction_scope!r}"
            )
        self.prediction_scope = prediction_scope
        self.last_prediction_summary: Optional[Dict[str, Any]] = None
        self._explorer: Optional[Explorer] = None

        self.state_model = StateModel(node.node_id)
        # Every count lives in the runtime's own metrics registry, and
        # each owner holds handles to the counters it writes.
        self.metrics = MetricsRegistry()
        self.steering = SteeringModule(metrics=self.metrics, node=node.node_id)
        self.states_explored = self._counter("states_explored")
        self._predictions = self._counter("predictions")
        self._choices_resolved = self._counter("choices_resolved")
        # Checkpoint exchange (Figure 1's first box): every runtime
        # message goes there.
        self.exchange = CheckpointExchange(
            node, self.state_model, self.network_model, self.metrics,
            trigger=self.broadcast_checkpoint,
            checkpoint_period=checkpoint_period,
            passive_measurement=passive_measurement,
        )

        # Exposed choices: one resolver, per choice or amortized, each
        # degrading through the fallback.  ``amortized`` is the
        # amortized scheduler's tables, or None.
        resolver_class = AmortizedResolver if steering_policy else PerChoiceResolver
        self.resolver = resolver_class(self, fallback)
        self.amortized = self.resolver.amortized

        node.inbound_interposers.append(self)
        node.crystalball = self
        node.capture_dispatch = self.resolver.needs_dispatch

    def _counter(self, key: str) -> Counter:
        return self.metrics.counter(f"runtime.{key}", node=self.node.node_id)

    @property
    def stats(self) -> Dict[str, int]:
        """Every runtime counter by key, as a plain dict read off the
        registry (writing to it changes no count)."""
        return {key: self._counter(key).value for key in _STATS_KEYS}

    def start(self) -> None:
        """Start the checkpoint exchange and the periodic prediction
        (each period while the node is up)."""
        self.exchange.start()
        if self.prediction_period > 0:
            node = self.node
            node.sim.every(self.prediction_period,
                           lambda: self.run_prediction() if node.is_up else None,
                           math.inf, f"cb.predict:{node.node_id}")

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

    def broadcast_checkpoint(self) -> None:
        """Take a checkpoint and send it to every neighbor (the entry
        point of every broadcast: see :class:`CheckpointExchange`)."""
        with self.metrics.span("runtime.checkpoint_broadcast", node=self.node.node_id):
            self.exchange.broadcast()

    # ------------------------------------------------------------------
    # Prediction engine: snapshot world, consequence prediction, replay
    # ------------------------------------------------------------------

    def current_world(self) -> WorldState:
        """Assemble the snapshot world from the state model.

        The local state is always fresh; neighbor states are the latest
        collected checkpoints.  Nodes the local failure detector (here:
        the liveness registry, a simulation convenience) believes down
        are marked down in the world.
        """
        self.exchange.record_own_checkpoint()
        states = self._scoped_states()
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

    def _scoped_states(self) -> Dict[int, Dict[str, Any]]:
        """The latest collected state of every node a prediction covers:
        all of them, or under ``"neighborhood"`` scope this node and its
        neighbours only.  The outer mapping is the caller's own."""
        states = self.state_model.latest_states()
        if self.prediction_scope == "neighborhood":
            keep = set(self.exchange.neighbors())
            keep.add(self.node.node_id)
            states = {nid: st for nid, st in states.items() if nid in keep}
        return states

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
                rng_seed=self.node.sim.rng.root_seed,
            )
        return self._explorer

    def run_prediction(self) -> Optional[PredictionReport]:
        """One consequence-prediction pass over the current snapshot.

        A pass whose prediction raises is skipped: no steering comes
        from it, it is counted as ``degraded.round_skipped``, and None
        is returned.
        """
        with self.metrics.span("runtime.predict", node=self.node.node_id):
            try:
                world = self.current_world()
                report = self._predict(world)
            except ChoiceRequested:
                raise
            except Exception:
                self.resolver.skip_round()
                return None
        steer(self, report, world)
        return report

    def _predict(self, world: WorldState, budget: Optional[int] = None) -> PredictionReport:
        """One consequence prediction from ``world``, periodic or scoring
        a candidate, counted in ``predictions`` and ``states_explored``."""
        report = ConsequencePredictor(
            self.make_explorer(), chain_depth=self.chain_depth,
            budget=self.budget if budget is None else budget,
        ).predict(world)
        self._predictions.inc()
        self.states_explored.inc(report.total_states)
        self.last_prediction_summary = report.summary()
        return report

    # ------------------------------------------------------------------
    # Exposed choices: the entry points the resolver answers behind
    # ------------------------------------------------------------------

    def resolve(self, point: ChoicePoint, node: Node) -> Any:
        """The node's choice resolver (``install_crystalball`` sets it).

        Counts every answered choice once, as ``choices_resolved``.  A
        per-choice resolver with no captured dispatch has nothing to
        replay, so the choice degrades before any prediction starts.
        """
        if self.resolver.needs_dispatch and node.current_dispatch is None:
            value = self.resolver.degrade("no_dispatch", point, node)
        else:
            value = self.resolve_choice(point, node)
        self._choices_resolved.inc()
        return value

    def resolve_choice(self, point: ChoicePoint, node: Node) -> Any:
        """Answer a choice by prediction, or degrade it with a counted
        reason: see :mod:`~repro.runtime.resolution`."""
        return self.resolver.resolve(point, node)

    def _score_candidate(
        self, dispatch, candidate: Any, budget: Optional[int] = None,
    ) -> float:
        """Predicted objective score of ``candidate`` at the pending
        choice of ``dispatch`` (−inf when its replay runs out of fills)."""
        replayed = self._replay(dispatch, candidate)
        if replayed is None:
            return float("-inf")
        checkpoint, effects, _ = replayed
        states = self._scoped_states()
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
        return immediate + score_report(self._predict(world, budget), self.objective)

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
    **runtime_kwargs: Any,
) -> List[CrystalBallRuntime]:
    """Install and start a CrystalBall runtime on every node of a cluster.

    ``service_factory`` must build services identical in configuration
    to the live ones (it materializes checkpoints during exploration).
    With ``set_resolver`` each node's runtime becomes its choice
    resolver.  Extra keyword arguments go to every
    :class:`CrystalBallRuntime`.
    """
    runtimes = []
    for node in cluster.nodes:
        runtime = CrystalBallRuntime(node, service_factory, **runtime_kwargs)
        if set_resolver:
            node.choice_resolver = runtime
        runtime.start()
        runtimes.append(runtime)
    return runtimes


__all__ = ["CrystalBallRuntime", "install_crystalball"]
