"""Amortized prediction-driven steering: one prediction round, many choices.

Section 3.4: "A useful design decision is removing complex mechanisms
for making the choices from the critical path, using choices based on
previous similar scenarios as a fast alternative, and updating the
choices as more information becomes available."

At T1's event rate (10^5 offered requests) running full consequence
prediction per exposed choice is far too slow.  :class:`AmortizedSteering`
puts prediction off the critical path with two tables:

* **Rankings** — the distilled artifact of a scored prediction round:
  candidates ranked best first, keyed by a coarse
  :func:`scenario_signature` (queue-depth bucket, conflict-signal
  bucket, liveness fingerprint).  Entries age out after
  ``MAX_POLICY_AGE``.
* **Coalesced answers** — identical :class:`ChoicePoint`\\ s arriving
  within ``COALESCE_WINDOW`` sim-seconds share one resolution (one
  score pass, N answers), deduplicated by :func:`identity_key`.

A miss in both, when the budget allows, pays for one scored prediction
round whose ranking serves every later choice in the same scenario;
otherwise it degrades through ``degrade``, the runtime's one exit (see
:mod:`~repro.runtime.resolution`): never stale-silently, never blocking.

The prediction budget is deliberately expressed in *predicted states
per simulated second*, not wall time: a wall-clock duty cycle would
make resolutions depend on host speed and break same-seed digest
identity.  Wall duty cycle is still measured (the resolver's
``runtime.policy_score`` span) and reported by the T2 bench — the
states-rate budget is the deterministic proxy that keeps it low.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..choice.choicepoint import ChoicePoint
from ..obs import Counter, MetricsRegistry
from ..statemachine.context import ChoiceRequested
from ..statemachine.serialization import freeze

#: A ranking is the distilled output of one scored prediction round:
#: candidates with their predicted-objective scores, best first.
Ranking = Tuple[Tuple[Any, float], ...]

# LRU bounds of the two tables.
_ANSWER_ENTRIES = 4096
_RANKING_ENTRIES = 512
# Sim-seconds an identical choice point reuses a coalesced answer.
COALESCE_WINDOW = 0.25
# Sim-seconds a ranking answers its scenario.
MAX_POLICY_AGE = 20.0
# The prediction budget: at most RATE_BUDGET predicted states per
# simulated second, plus INITIAL_ALLOWANCE up front so scoring can
# start at t=0 (the values BENCH_T2.json was recorded with).
RATE_BUDGET = 3_000.0
INITIAL_ALLOWANCE = 30_000.0

# Each path that answers a choice, as ``resolve_explain`` names it, and
# its ``runtime.policy.<name>`` counter; every resolution takes one.
_PATHS = {"coalesced": "coalesced", "policy": "policy_hits",
          "scored": "scored_rounds", "fallback": "fallbacks"}


def identity_key(point: ChoicePoint) -> Tuple:
    """Exact identity of a choice point (the coalescing dedup key).

    Two points share a coalesced resolution only when label, candidates,
    and every application hint match.
    """
    return (
        point.label,
        freeze(list(point.candidates)),
        freeze(sorted(point.info.items())),
    )


def _bucket(value: Any) -> int:
    """Logarithmic bucket of a non-negative magnitude (0, 1, 2, 4, ...)."""
    return int(max(float(value), 0.0)).bit_length()


def _liveness_fingerprint(node: Optional[object]) -> Tuple[int, ...]:
    """The sorted tuple of currently-down node ids, as this node sees it."""
    network = getattr(node, "network", None)
    liveness = getattr(network, "liveness", None)
    if liveness is None:
        return ()
    return tuple(sorted(liveness.down_nodes))


def scenario_signature(point: ChoicePoint, node: Optional[object] = None) -> Tuple:
    """Coarse scenario identity for ranking entries.

    Deliberately much coarser than :func:`identity_key`: queue depth is
    bucketed logarithmically, the conflict signal is clamped to small
    integers, and the liveness fingerprint captures which peers are
    down.  One prediction round's ranking then serves every choice the
    scenario produces until it ages out.
    """
    parts: List[Any] = [point.label, freeze(list(point.candidates))]
    info = point.info
    if "queue" in info:
        parts.append(("queue", _bucket(info["queue"])))
    if "conflicts" in info:
        parts.append(("conflicts", min(int(float(info["conflicts"])), 4)))
    if "inflight" in info:
        parts.append(("inflight", _bucket(info["inflight"])))
    parts.append(("down", _liveness_fingerprint(node)))
    return tuple(parts)


def _live(table: "OrderedDict", key: Tuple, now: float, ttl: float) -> Optional[Tuple]:
    """The ``(value, stored_at)`` entry under ``key`` if live, else None.

    An entry is live while ``stored_at >= now - ttl``: one stored at
    exactly ``now - ttl`` still hits (comparing the timestamps directly
    rather than subtracting twice avoids the floating-point drift of
    ``now - stored_at > ttl``).  A live hit moves to the LRU end; an
    expired entry is deleted.
    """
    entry = table.get(key)
    if entry is None:
        return None
    if entry[1] < now - ttl:
        del table[key]
        return None
    table.move_to_end(key)
    return entry


def _offered(ranking: Ranking, point: ChoicePoint) -> Optional[Any]:
    """The best ranked candidate ``point`` still offers, or None."""
    for candidate, _score in ranking:
        if candidate in point.candidates:
            return candidate
    return None


def _store(table: "OrderedDict", key: Tuple, value: Any, now: float, bound: int) -> None:
    """Store ``value`` at ``now``, evicting the least recently used entry."""
    table[key] = (value, now)
    table.move_to_end(key)
    if len(table) > bound:
        table.popitem(last=False)


class AmortizedSteering:
    """The amortization scheduler: coalesce, consult rankings, else score.

    Resolution order for one choice point at sim-time ``now``:

    1. **Coalesce** — an identical point resolved within
       ``COALESCE_WINDOW`` returns the same answer (no score pass).
    2. **Policy** — a live ranking for the point's
       :func:`scenario_signature` answers with its best candidate still
       offered.
    3. **Score** — if the states-rate budget allows and
       ``score_fn(point, node)`` can run (a captured dispatch is
       available to replay: else it returns None), one prediction round
       returns ``(ranking, states)`` and installs the ranking for the
       whole scenario.
    4. **Fallback** — otherwise ``degrade(reason, point, node)``
       answers, with the reason no prediction did: ``budget`` (the
       states-rate budget is spent), ``denied`` (admission control: the
       round would not fit), ``deferred`` (no captured dispatch; capture
       is armed so an upcoming dispatch carries the checkpoint a
       scoring round needs), ``prediction_error`` (``score_fn`` raised)
       or ``unranked`` (no ``score_fn``, or its ranking offers none of
       the candidates).

    Every step is a pure function of simulation state, so same-seed
    runs resolve identically (the T2 bench asserts digest identity).
    Each count is a ``runtime.policy.*`` counter of ``metrics`` (the
    runtime's registry, labelled ``node``); :meth:`snapshot` reads
    ``denied`` and ``deferred`` off ``degrade``'s ``runtime.degraded.*``.
    """

    def __init__(
        self,
        degrade: Callable[[str, ChoicePoint, Optional[object]], Any],
        metrics: MetricsRegistry,
        node: int,
        score_fn: Optional[Callable[..., Optional[Tuple[Ranking, int]]]] = None,
        cost_fn: Optional[Callable[..., Optional[int]]] = None,
    ) -> None:
        self.degrade = degrade
        self.score_fn = score_fn
        # Optional admission estimate: projected cost of scoring this
        # point *now* (None = unknown, admit); see the resolver's
        # ``_policy_cost`` for why rounds are denied up front.
        self.cost_fn = cost_fn
        # identity_key -> (answer, stored_at)
        self.answers: "OrderedDict[Tuple, Tuple[Any, float]]" = OrderedDict()
        # scenario_signature -> (ranking, stored_at)
        self.rankings: "OrderedDict[Tuple, Tuple[Ranking, float]]" = OrderedDict()
        # Dispatch kinds observed to carry choices: while capture is
        # armed, only these checkpoint (see Node.capture_kinds) — the
        # rest of the event stream stays snapshot-free.
        self.capture_kinds: set = set()
        self._counter = partial(metrics.counter, node=node)
        self._paths = {how: self._counter(f"runtime.policy.{name}") for how, name in _PATHS.items()}
        self._installs = self._counter("runtime.policy.installs")  # scored rounds run
        self._stale = self._counter("runtime.policy.stale")
        self._spent = self._counter("runtime.policy.spent_states")
        self._denied = self._counter("runtime.degraded.denied")
        self._deferred = self._counter("runtime.degraded.deferred")
        # The invalidation reasons seen so far, one counter each.
        self._invalidations: Dict[str, Counter] = {}

    def allowance(self, now: float) -> float:
        """States the budget permits having spent by simulated ``now``."""
        return INITIAL_ALLOWANCE + RATE_BUDGET * max(now, 0.0)

    def install(self, signature: Tuple, ranking: Iterable[Tuple[Any, float]],
                now: float) -> None:
        """Distill one scored round into a ranking for its scenario."""
        _store(self.rankings, signature, tuple(ranking), now, _RANKING_ENTRIES)
        self._installs.inc()

    def lookup(self, signature: Tuple, point: ChoicePoint, now: float) -> Optional[Any]:
        """Best ranked candidate still offered by ``point``, or None.

        A live ranking none of whose candidates are currently offered is
        counted as stale, and the caller falls through to
        scoring/fallback.  Hits and misses are the paths' to count.
        """
        entry = _live(self.rankings, signature, now, MAX_POLICY_AGE)
        if entry is None:
            return None
        value = _offered(entry[0], point)
        if value is None:
            self._stale.inc()
        return value

    def resolve(self, point: ChoicePoint, node: Optional[object] = None,
                now: Optional[float] = None) -> Any:
        return self.resolve_explain(point, node, now=now)[0]

    def resolve_explain(
        self, point: ChoicePoint, node: Optional[object] = None,
        now: Optional[float] = None,
    ) -> Tuple[Any, str]:
        """Resolve and say how: coalesced | policy | scored | fallback."""
        if now is None:
            now = node.sim.now if node is not None else 0.0
        key = identity_key(point)
        entry = _live(self.answers, key, now, COALESCE_WINDOW)
        if entry is not None:
            self._paths["coalesced"].inc()
            return entry[0], "coalesced"
        signature = scenario_signature(point, node)
        how, value = "policy", self.lookup(signature, point, now)
        if value is None:
            how, reason = "scored", self._score(signature, point, node, now)
            if reason is None:
                # The round just installed its ranking: pick from it as is.
                value = _offered(self.rankings[signature][0], point)
            if value is None:
                how, value = "fallback", self.degrade(reason or "unranked", point, node)
        self._paths[how].inc()
        _store(self.answers, key, value, now, _ANSWER_ENTRIES)
        return value, how

    def _score(self, signature: Tuple, point: ChoicePoint,
               node: Optional[object], now: float) -> Optional[str]:
        """Run one scored round and install its ranking: None, or the
        reason no round ran."""
        if self.score_fn is None:
            return "unranked"
        spent = self._spent.value
        if spent >= self.allowance(now):
            return "budget"
        projected = self.cost_fn(point, node) if self.cost_fn is not None else None
        if projected is not None and spent + projected > self.allowance(now):
            # Admission control: this round's replay no longer fits the
            # remaining allowance (the decided log has grown).  Disarm
            # capture too — stop snapshotting dispatches for rounds we
            # cannot afford; the fallback answers until the accruing
            # allowance can admit a round again.
            self._disarm(node)
            return "denied"
        try:
            scored = self.score_fn(point, node)
        except ChoiceRequested:
            raise
        except Exception:
            return "prediction_error"
        if scored is None:
            # Scoring wanted but impossible (no captured dispatch): arm
            # capture so an upcoming dispatch checkpoints its pre-state
            # and the next miss in this scenario scores.
            self._arm(node)
            return "deferred"
        ranking, cost = scored
        self._spent.inc(max(int(cost), 0))
        self.install(signature, ranking, now)
        self._disarm(node)
        return None

    def _arm(self, node: Optional[object]) -> None:
        if node is not None:
            # A deferral happens *inside* the choice-bearing dispatch,
            # so its kind is exactly what future captures should cover.
            kind = getattr(node, "current_dispatch_kind", None)
            if kind is not None:
                self.capture_kinds.add(kind)
                node.capture_kinds = self.capture_kinds
            node.capture_dispatch = True

    def _disarm(self, node: Optional[object]) -> None:
        if node is not None:
            node.capture_dispatch = False

    def invalidate(self, reason: str = "external") -> None:
        """World changed: drop rankings and coalesced answers."""
        self.rankings.clear()
        self.answers.clear()
        counter = self._invalidations[reason] = self._counter(
            "runtime.policy.invalidations", reason=reason)
        counter.inc()

    def snapshot(self) -> Dict[str, Any]:
        """Path counters, budget spent, and both tables' lookup tallies.

        ``resolutions`` counts every answered choice once: a denied or
        deferred resolution also ends as a fallback, so the sum of all
        ``counters`` would count it twice.  A resolution looks up each
        table it reaches once, and hits it only on that table's path.
        """
        counters = {name: self._paths[how].value for how, name in _PATHS.items()}
        resolutions = sum(counters.values())
        counters["deferred"] = self._deferred.value
        counters["denied"] = self._denied.value
        coalesced, hits = counters["coalesced"], counters["policy_hits"]
        policy: Dict[str, Any] = {
            "installs": self._installs.value,
            "invalidations": {
                reason: counter.value for reason, counter in self._invalidations.items()
            },
            "hits": hits,
            "misses": resolutions - coalesced - hits,
            "stale": self._stale.value,
        }
        policy["hit_rate"] = _hit_rate(policy)
        return {
            "counters": counters,
            "resolutions": resolutions,
            "spent_states": self._spent.value,
            "policy": policy,
            "coalesce": {"hits": coalesced, "misses": resolutions - coalesced},
        }


def _hit_rate(tally: Dict[str, Any]) -> float:
    lookups = tally["hits"] + tally["misses"]
    return tally["hits"] / lookups if lookups else 0.0


def _add(into: Dict[str, Any], counts: Dict[str, Any]) -> None:
    """Add every count in ``counts``, nested ones too, into ``into``."""
    for name, count in counts.items():
        if isinstance(count, dict):
            _add(into.setdefault(name, {}), count)
        else:
            into[name] = into.get(name, 0) + count


def merge_steering_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-node :meth:`AmortizedSteering.snapshot` dicts.

    Sums every count and recomputes the policy hit rate, so experiment
    metrics can report one cluster-wide ``steering`` section of the same
    shape.
    """
    merged: Dict[str, Any] = {
        "counters": {},
        "resolutions": 0,
        "spent_states": 0,
        "policy": {"installs": 0, "invalidations": {},
                   "hits": 0, "misses": 0, "stale": 0},
        "coalesce": {"hits": 0, "misses": 0},
    }
    for snap in snapshots:
        _add(merged, snap)
    merged["policy"]["hit_rate"] = _hit_rate(merged["policy"])
    return merged


__all__ = [
    "AmortizedSteering",
    "Ranking",
    "identity_key",
    "merge_steering_snapshots",
    "scenario_signature",
]
