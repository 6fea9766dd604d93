"""Amortized prediction-driven steering: one prediction round, many choices.

ROADMAP item 2 left explicit headroom: at T1's event rate (10^5 offered
requests) running full consequence prediction per exposed choice is far
too slow, so the batched Paxos workload steered off a *static*
deployment-model resolver.  This module closes that gap with three
cooperating mechanisms:

* :class:`SteeringPolicy` — the distilled artifact of a prediction
  round: per choice-point-kind candidate *rankings* keyed by a coarse
  :func:`scenario_signature` (queue-depth bucket, conflict-signal
  bucket, liveness fingerprint).  Stored in a
  :class:`~repro.runtime.policy_cache.PolicyCache`, so entries age out
  after ``max_age`` and per-scenario-key hit/miss/stale counters come
  for free.
* **Choice coalescing** — identical :class:`ChoicePoint`\\ s arriving
  within ``coalesce_window`` sim-seconds share one resolution (one
  score pass, N answers), deduplicated by :func:`identity_key`.
* :class:`AmortizedSteering` — the scheduler gluing both to the hot
  path: answer from the coalescing cache, then from the policy, and
  only when both miss (and the deterministic prediction budget allows
  it) run one scored prediction round whose ranking is installed for
  every later choice in the same scenario.  A policy older than
  ``max_age``, or invalidated by steering installs / liveness flips /
  topology changes, degrades gracefully to the static fallback
  resolver — it never answers stale-silently and never blocks the hot
  path.

The prediction budget is deliberately expressed in *predicted states
per simulated second*, not wall time: a wall-clock duty cycle would
make resolutions depend on host speed and break same-seed digest
identity.  Wall duty cycle is still measured (the runtime's
``runtime.choice_score`` span) and reported by the T2 bench — the
states-rate budget is the deterministic proxy that keeps it low.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..choice.choicepoint import ChoicePoint, ConfigurationError
from ..statemachine.serialization import freeze
from .policy_cache import PolicyCache

#: A ranking is the distilled output of one scored prediction round:
#: candidates with their predicted-objective scores, best first.
Ranking = Tuple[Tuple[Any, float], ...]

#: Scores one choice point by prediction.  Returns ``(ranking,
#: states_explored)`` or ``None`` when scoring is impossible right now
#: (typically: the current dispatch was not captured for replay).
ScoreFn = Callable[[ChoicePoint, Optional[object]], Optional[Tuple[Ranking, int]]]


def identity_key(point: ChoicePoint) -> Tuple:
    """Exact identity of a choice point (the coalescing dedup key).

    Two points share a coalesced resolution only when label, candidates,
    and every application hint match — the same memoized-action-key
    discipline the chain memo uses for deliveries.
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
    """Coarse scenario identity for policy entries.

    Deliberately much coarser than
    :func:`~repro.runtime.policy_cache.scenario_key` (which includes
    the full state digest): queue depth is bucketed logarithmically,
    the conflict signal is clamped to small integers, and the liveness
    fingerprint captures which peers are down.  One prediction round's
    ranking then serves every choice the scenario produces until it
    ages out.
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


class SteeringPolicy:
    """Per-scenario candidate rankings distilled from prediction rounds.

    Entries live in a :class:`PolicyCache` with ``ttl=max_age``, so
    staleness is enforced on lookup (an entry installed at ``t`` stops
    answering after ``t + max_age``) and per-scenario-key counters are
    exposed through :meth:`snapshot`.  :meth:`invalidate` drops
    everything at once — the hook for steering installs, liveness
    flips, and topology changes, whose effects a signature cannot see.
    """

    def __init__(self, max_age: float = 5.0, max_entries: int = 512) -> None:
        if max_age is not None and max_age <= 0:
            raise ConfigurationError(
                f"SteeringPolicy max_age must be positive, got {max_age!r}"
            )
        self.max_age = max_age
        self.cache = PolicyCache(ttl=max_age, max_entries=max_entries)
        self.refreshed_at = float("-inf")
        self.installs = 0
        self.invalidations: Dict[str, int] = {}

    def fresh(self, now: float) -> bool:
        """Whether *any* prediction round refreshed us within max_age."""
        if self.max_age is None:
            return self.refreshed_at > float("-inf")
        return now - self.refreshed_at <= self.max_age

    def install(self, signature: Tuple, ranking: Iterable[Tuple[Any, float]],
                now: float) -> None:
        """Distill one scored round into a policy entry."""
        self.cache.put(signature, tuple(ranking), now)
        self.installs += 1
        if now > self.refreshed_at:
            self.refreshed_at = now

    def ranking(self, signature: Tuple, now: float) -> Optional[Ranking]:
        """The live ranking for a scenario, or None (missing/aged out)."""
        hit = self.cache.get(signature, now)
        return hit[1] if hit is not None else None

    def lookup(self, signature: Tuple, point: ChoicePoint, now: float) -> Optional[Any]:
        """Best ranked candidate still offered by ``point``, or None.

        A live entry none of whose candidates are currently offered is
        reclassified as a stale miss (the cache's per-key counters
        record it) and the caller falls through to scoring/fallback.
        """
        ranking = self.ranking(signature, now)
        if ranking is None:
            return None
        for candidate, _score in ranking:
            if candidate in point.candidates:
                return candidate
        self.cache.mark_stale()
        return None

    def invalidate(self, reason: str = "external") -> None:
        """Drop every entry and forget freshness (world changed)."""
        self.cache.invalidate()
        self.refreshed_at = float("-inf")
        self.invalidations[reason] = self.invalidations.get(reason, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "max_age": self.max_age,
            "installs": self.installs,
            "refreshed_at": (
                None if self.refreshed_at == float("-inf") else self.refreshed_at
            ),
            "invalidations": dict(self.invalidations),
            "cache": self.cache.snapshot(),
        }


class AmortizedSteering:
    """The amortization scheduler: coalesce, consult policy, else score.

    Resolution order for one choice point at sim-time ``now``:

    1. **Coalesce** — an identical point resolved within
       ``coalesce_window`` returns the same answer (no score pass).
    2. **Policy** — a live :class:`SteeringPolicy` entry for the
       point's :func:`scenario_signature` answers from the ranking.
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
        max_policy_age: float = 5.0,
        rate_budget: Optional[float] = 1200.0,
        initial_allowance: Optional[float] = None,
    ) -> None:
        if fallback is None or not callable(getattr(fallback, "resolve", None)):
            raise ConfigurationError(
                "amortized steering requires a fallback resolver with a "
                f".resolve(point, node) method, got {fallback!r}; a stale or "
                "invalidated policy must have something to degrade to"
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
        self.policy = SteeringPolicy(max_age=max_policy_age)
        self.coalesce = PolicyCache(ttl=coalesce_window)
        # Prediction budget: at most rate_budget predicted states per
        # simulated second (plus one sim-second's allowance up front so
        # scoring can start at t=0).  None disables the cap.
        self.rate_budget = rate_budget
        self.initial_allowance = (
            initial_allowance if initial_allowance is not None
            else (rate_budget if rate_budget is not None else 0.0)
        )
        self.spent_states = 0
        self.capture_wanted = False
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
        hit = self.coalesce.get(key, now)
        if hit is not None:
            self.counters["coalesced"] += 1
            return hit[1], "coalesced"
        signature = scenario_signature(point, node)
        value = self.policy.lookup(signature, point, now)
        if value is not None:
            self.counters["policy_hits"] += 1
            self.coalesce.put(key, value, now)
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
                    self.policy.install(signature, ranking, now)
                    self._disarm(node)
                    value = self.policy.lookup(signature, point, now)
                    if value is not None:
                        self.coalesce.put(key, value, now)
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
        self.coalesce.put(key, value, now)
        return value, "fallback"

    def _arm(self, node: Optional[object]) -> None:
        self.capture_wanted = True
        if node is not None:
            # A deferral happens *inside* the choice-bearing dispatch,
            # so its kind is exactly what future captures should cover.
            kind = getattr(node, "current_dispatch_kind", None)
            if kind is not None:
                self.capture_kinds.add(kind)
                node.capture_kinds = self.capture_kinds
            node.capture_dispatch = True

    def _disarm(self, node: Optional[object]) -> None:
        self.capture_wanted = False
        if node is not None:
            node.capture_dispatch = False

    def invalidate(self, reason: str = "external") -> None:
        """World changed: drop policy entries and coalesced answers."""
        self.policy.invalidate(reason)
        self.coalesce.invalidate()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "spent_states": self.spent_states,
            "rate_budget": self.rate_budget,
            "coalesce_window": self.coalesce_window,
            "coalesce": self.coalesce.snapshot(),
            "policy": self.policy.snapshot(),
        }


def merge_steering_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-node :meth:`AmortizedSteering.snapshot` dicts.

    Sums the scheduler counters and the policy/coalesce cache tallies
    (including per-scenario-key counters) so experiment metrics can
    report one cluster-wide ``steering`` section.
    """
    merged: Dict[str, Any] = {
        "counters": {},
        "spent_states": 0,
        "policy": {"installs": 0, "invalidations": {},
                   "hits": 0, "misses": 0, "stale": 0, "keys": {}},
        "coalesce": {"hits": 0, "misses": 0},
    }
    for snap in snapshots:
        for name, count in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + count
        merged["spent_states"] += snap.get("spent_states", 0)
        policy = snap.get("policy", {})
        merged["policy"]["installs"] += policy.get("installs", 0)
        for reason, count in policy.get("invalidations", {}).items():
            inv = merged["policy"]["invalidations"]
            inv[reason] = inv.get(reason, 0) + count
        cache = policy.get("cache", {})
        for field in ("hits", "misses", "stale"):
            merged["policy"][field] += cache.get(field, 0)
        for label, stat in cache.get("keys", {}).items():
            slot = merged["policy"]["keys"].setdefault(
                label, {"hits": 0, "misses": 0, "stale": 0}
            )
            for field in ("hits", "misses", "stale"):
                slot[field] += stat.get(field, 0)
        coalesce = snap.get("coalesce", {})
        for field in ("hits", "misses"):
            merged["coalesce"][field] += coalesce.get(field, 0)
    lookups = merged["policy"]["hits"] + merged["policy"]["misses"]
    merged["policy"]["hit_rate"] = (
        merged["policy"]["hits"] / lookups if lookups else 0.0
    )
    return merged


__all__ = [
    "AmortizedSteering",
    "Ranking",
    "SteeringPolicy",
    "identity_key",
    "merge_steering_snapshots",
    "scenario_signature",
]
