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
  ``max_policy_age``.
* **Coalesced answers** — identical :class:`ChoicePoint`\\ s arriving
  within ``coalesce_window`` sim-seconds share one resolution (one
  score pass, N answers), deduplicated by :func:`identity_key`.

A choice is answered from the coalesced answers, then from a ranking,
and only when both miss (and the deterministic prediction budget allows
it) by one scored prediction round whose ranking is installed for every
later choice in the same scenario.  A ranking older than
``max_policy_age``, or invalidated by steering installs / liveness flips
/ topology changes, degrades gracefully to the static fallback resolver
— it never answers stale-silently and never blocks the hot path.

The prediction budget is deliberately expressed in *predicted states
per simulated second*, not wall time: a wall-clock duty cycle would
make resolutions depend on host speed and break same-seed digest
identity.  Wall duty cycle is still measured (the runtime's
``runtime.choice_score`` span) and reported by the T2 bench — the
states-rate budget is the deterministic proxy that keeps it low.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..choice.choicepoint import ChoicePoint, ConfigurationError
from ..statemachine.serialization import freeze

#: A ranking is the distilled output of one scored prediction round:
#: candidates with their predicted-objective scores, best first.
Ranking = Tuple[Tuple[Any, float], ...]

#: Scores one choice point by prediction.  Returns ``(ranking,
#: states_explored)`` or ``None`` when scoring is impossible right now
#: (typically: the current dispatch was not captured for replay).
ScoreFn = Callable[[ChoicePoint, Optional[object]], Optional[Tuple[Ranking, int]]]

# LRU bounds of the two tables.
_ANSWER_ENTRIES = 4096
_RANKING_ENTRIES = 512

# The paths that answer a choice; every resolution takes exactly one.
_RESOLVED_BY = ("coalesced", "policy_hits", "scored_rounds", "fallbacks")


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
       ``coalesce_window`` returns the same answer (no score pass).
    2. **Policy** — a live ranking for the point's
       :func:`scenario_signature` answers with its best candidate still
       offered.
    3. **Score** — if the states-rate budget allows and ``score_fn``
       can run (a captured dispatch is available to replay), one
       prediction round ranks the candidates and installs the ranking
       for the whole scenario.
    4. **Fallback** — otherwise the static resolver answers; when the
       only blocker was a missing dispatch capture, capture is armed so
       an upcoming dispatch carries the checkpoint a scoring round
       needs.

    Every step is a pure function of simulation state, so same-seed
    runs resolve identically (the T2 bench asserts digest identity).
    """

    def __init__(
        self,
        fallback: Any,
        score_fn: Optional[ScoreFn] = None,
        cost_fn: Optional[Any] = None,
        coalesce_window: float = 0.25,
        max_policy_age: float = 20.0,
        rate_budget: Optional[float] = 3_000.0,
        initial_allowance: float = 30_000.0,
    ) -> None:
        if fallback is None or not callable(getattr(fallback, "resolve", None)):
            raise ConfigurationError(
                "amortized steering requires a fallback resolver with a "
                f".resolve(point, node) method, got {fallback!r}; a stale or "
                "invalidated policy must have something to degrade to"
            )
        if max_policy_age <= 0:
            raise ConfigurationError(
                f"max_policy_age must be positive, got {max_policy_age!r}"
            )
        self.fallback = fallback
        self.score_fn = score_fn
        # Optional admission estimate: projected cost of scoring this
        # point *now* (None = unknown, admit).  Replay cost grows with
        # the decided log, so charging only after the fact would let a
        # single late round blow minutes of wall; denying rounds that
        # no longer fit the remaining allowance keeps scoring
        # concentrated where it is cheap.
        self.cost_fn = cost_fn
        self.coalesce_window = coalesce_window
        self.max_policy_age = max_policy_age
        # identity_key -> (answer, stored_at)
        self.answers: "OrderedDict[Tuple, Tuple[Any, float]]" = OrderedDict()
        # scenario_signature -> (ranking, stored_at)
        self.rankings: "OrderedDict[Tuple, Tuple[Ranking, float]]" = OrderedDict()
        self.installs = 0
        self.invalidations: Dict[str, int] = {}
        self.policy_lookups = {"hits": 0, "misses": 0, "stale": 0}
        self.coalesce_lookups = {"hits": 0, "misses": 0}
        # Prediction budget: at most rate_budget predicted states per
        # simulated second, plus initial_allowance up front so scoring
        # can start at t=0.  None disables the cap.
        self.rate_budget = rate_budget
        self.initial_allowance = initial_allowance
        self.spent_states = 0
        # Dispatch kinds observed to carry choices: while capture is
        # armed, only these checkpoint (see Node.capture_kinds) — the
        # rest of the event stream stays snapshot-free.
        self.capture_kinds: set = set()
        self.counters: Dict[str, int] = {
            "coalesced": 0,
            "policy_hits": 0,
            "scored_rounds": 0,
            "fallbacks": 0,
            "deferred": 0,
            "denied": 0,
        }

    def allowance(self, now: float) -> float:
        """States the budget permits having spent by simulated ``now``."""
        if self.rate_budget is None:
            return float("inf")
        return self.initial_allowance + self.rate_budget * max(now, 0.0)

    def budget_ok(self, now: float) -> bool:
        """Whether the deterministic states-rate budget allows scoring."""
        return self.spent_states < self.allowance(now)

    def install(self, signature: Tuple, ranking: Iterable[Tuple[Any, float]],
                now: float) -> None:
        """Distill one scored round into a ranking for its scenario."""
        _store(self.rankings, signature, tuple(ranking), now, _RANKING_ENTRIES)
        self.installs += 1

    def lookup(self, signature: Tuple, point: ChoicePoint, now: float) -> Optional[Any]:
        """Best ranked candidate still offered by ``point``, or None.

        A live ranking none of whose candidates are currently offered is
        counted as a stale miss, and the caller falls through to
        scoring/fallback.
        """
        entry = _live(self.rankings, signature, now, self.max_policy_age)
        if entry is not None:
            for candidate, _score in entry[0]:
                if candidate in point.candidates:
                    self.policy_lookups["hits"] += 1
                    return candidate
            self.policy_lookups["stale"] += 1
        self.policy_lookups["misses"] += 1
        return None

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
        entry = _live(self.answers, key, now, self.coalesce_window)
        if entry is not None:
            self.coalesce_lookups["hits"] += 1
            self.counters["coalesced"] += 1
            return entry[0], "coalesced"
        self.coalesce_lookups["misses"] += 1
        signature = scenario_signature(point, node)
        value = self.lookup(signature, point, now)
        if value is not None:
            self.counters["policy_hits"] += 1
            _store(self.answers, key, value, now, _ANSWER_ENTRIES)
            return value, "policy"
        if self.score_fn is not None and self.budget_ok(now):
            projected = (
                self.cost_fn(point, node) if self.cost_fn is not None else None
            )
            if projected is not None and \
                    self.spent_states + projected > self.allowance(now):
                # Admission control: this round's replay no longer fits
                # the remaining allowance (the decided log has grown).
                # Disarm capture too — stop snapshotting dispatches for
                # rounds we cannot afford; the fallback answers until
                # the accruing allowance can admit a round again.
                self.counters["denied"] += 1
                self._disarm(node)
            else:
                scored = self.score_fn(point, node)
                if scored is not None:
                    ranking, cost = scored
                    self.spent_states += max(int(cost), 0)
                    self.counters["scored_rounds"] += 1
                    self.install(signature, ranking, now)
                    self._disarm(node)
                    value = self.lookup(signature, point, now)
                    if value is not None:
                        _store(self.answers, key, value, now, _ANSWER_ENTRIES)
                        return value, "scored"
                else:
                    # Scoring wanted but impossible (no captured
                    # dispatch): arm capture so an upcoming dispatch
                    # checkpoints its pre-state and the next miss in
                    # this scenario scores.
                    self.counters["deferred"] += 1
                    self._arm(node)
        value = self.fallback.resolve(point, node)
        self.counters["fallbacks"] += 1
        _store(self.answers, key, value, now, _ANSWER_ENTRIES)
        return value, "fallback"

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
        self.invalidations[reason] = self.invalidations.get(reason, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        """Path counters, budget spent, and both tables' lookup tallies.

        ``resolutions`` counts every answered choice once: a denied or
        deferred resolution also ends as a fallback, so the sum of all
        ``counters`` would count it twice.
        """
        policy: Dict[str, Any] = {
            "installs": self.installs,
            "invalidations": dict(self.invalidations),
            **self.policy_lookups,
        }
        policy["hit_rate"] = _hit_rate(policy)
        return {
            "counters": dict(self.counters),
            "resolutions": sum(self.counters[path] for path in _RESOLVED_BY),
            "spent_states": self.spent_states,
            "policy": policy,
            "coalesce": dict(self.coalesce_lookups),
        }


def _hit_rate(tally: Dict[str, Any]) -> float:
    lookups = tally["hits"] + tally["misses"]
    return tally["hits"] / lookups if lookups else 0.0


def _add(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for name, count in counts.items():
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
        _add(merged["counters"], snap["counters"])
        merged["resolutions"] += snap["resolutions"]
        merged["spent_states"] += snap["spent_states"]
        policy = snap["policy"]
        for field in ("installs", "hits", "misses", "stale"):
            merged["policy"][field] += policy[field]
        _add(merged["policy"]["invalidations"], policy["invalidations"])
        _add(merged["coalesce"], snap["coalesce"])
    merged["policy"]["hit_rate"] = _hit_rate(merged["policy"])
    return merged


__all__ = [
    "AmortizedSteering",
    "Ranking",
    "identity_key",
    "merge_steering_snapshots",
    "scenario_signature",
]
