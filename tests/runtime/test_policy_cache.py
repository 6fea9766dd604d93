"""The policy cache: AmortizedSteering's two keyed-TTL tables.

Coalesced answers (keyed by ``identity_key``, TTL ``COALESCE_WINDOW``)
and rankings (keyed by ``scenario_signature``, TTL ``MAX_POLICY_AGE``)
share one set of rules: an entry stored at exactly ``now - ttl`` still
hits, a live hit moves to the LRU end, an expired entry is deleted on
lookup, and a ranking none of whose candidates is still offered is a
stale miss.  The scheduler over them is the cached resolver that keeps
prediction off the critical path.
"""

from repro.choice.resolvers import FirstResolver
from repro.obs.report import node_metrics
from repro.runtime import identity_key, merge_steering_snapshots, scenario_signature
from repro.runtime.policy import _ANSWER_ENTRIES, _RANKING_ENTRIES

from .test_policy import (
    DegradeToLast,
    degrade_to_first,
    lookups,
    point,
    scheduler,
    scored_by,
    set_knobs,
)


class CountingScore:
    """A ScoreFn over a score table that counts its prediction rounds."""

    def __init__(self, scores):
        self.calls = 0
        self._score = scored_by(scores)

    def __call__(self, p, node):
        self.calls += 1
        return self._score(p, node)


def giver_cluster():
    """The three-node giver cluster under the amortized scheduler, run to
    t=6.5: one choice per second at node 0."""
    from repro.choice import PerformanceObjective
    from repro.runtime import install_crystalball
    from repro.statemachine import Cluster

    from .test_resolver import factory, weighted_wealth

    cluster = Cluster(3, factory, seed=1)
    runtimes = install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
        steering_policy=True, fallback=FirstResolver(),
    )
    cluster.start_all()
    cluster.run(until=6.5)
    return cluster, runtimes


# ----------------------------------------------------------------------
# Table mechanics
# ----------------------------------------------------------------------

def test_cache_put_get(monkeypatch):
    set_knobs(monkeypatch, COALESCE_WINDOW=5.0)
    sched = scheduler(DegradeToLast())
    p = point()
    assert sched.resolve_explain(p, now=1.0) == (3, "fallback")
    assert sched.answers[identity_key(p)] == (3, 1.0)
    assert sched.resolve_explain(p, now=2.0) == (3, "coalesced")
    assert sched.snapshot()["coalesce"] == {"hits": 1, "misses": 1}


def test_cache_miss():
    sched = scheduler(DegradeToLast())
    assert sched.lookup(("nope",), point(), now=0.0) is None
    assert lookups(sched) == (0, 0, 0)  # a lookup outside a resolution
    # A never-seen point misses both tables before the fallback answers.
    assert sched.resolve_explain(point(label="nope"), now=0.0) == (3, "fallback")
    assert sched.snapshot()["coalesce"] == {"hits": 0, "misses": 1}
    assert lookups(sched) == (0, 1, 0)


def test_ttl_expiry(monkeypatch):
    set_knobs(monkeypatch, COALESCE_WINDOW=1.0)
    fallback = DegradeToLast()
    sched = scheduler(fallback)
    p = point()
    sched.resolve(p, now=0.0)
    assert sched.resolve_explain(p, now=0.5)[1] == "coalesced"
    assert sched.resolve_explain(p, now=2.0)[1] == "fallback"
    assert fallback.reasons == ["unranked", "unranked"]


def test_ttl_boundary_entry_still_hits(monkeypatch):
    """An entry stored at exactly ``now - ttl`` is a hit, in both tables.

    The timestamps are compared directly (``stored_at < now - ttl``):
    the double-subtraction form ``now - stored_at > ttl`` drifts under
    floating point (e.g. 0.3 - 0.2 > 0.1) and evicted live entries."""
    set_knobs(monkeypatch, COALESCE_WINDOW=0.1, MAX_POLICY_AGE=0.1)
    sched = scheduler(DegradeToLast())
    p = point()
    sig = scenario_signature(p)
    sched.install(sig, ((2, 1.0),), now=0.2)
    assert sched.lookup(sig, p, now=0.3) == 2
    assert sched.resolve_explain(point(label="other"), now=0.2) == (3, "fallback")
    assert sched.resolve_explain(point(label="other"), now=0.3) == (3, "coalesced")
    # Strictly older than the window does expire.
    later = 0.3000001 + 0.1
    assert sched.lookup(sig, p, now=later) is None
    assert sched.resolve_explain(point(label="other"), now=later) == (3, "fallback")


def test_expired_entry_deleted_without_lru_bookkeeping(monkeypatch):
    set_knobs(monkeypatch, MAX_POLICY_AGE=1.0)
    sched = scheduler(DegradeToLast())
    sched.install(("old",), ((1, 1.0),), now=0.0)
    sched.install(("new",), ((2, 1.0),), now=5.0)
    assert sched.lookup(("old",), point(), now=5.0) is None
    assert list(sched.rankings) == [("new",)]  # deleted outright
    assert lookups(sched) == (0, 0, 0)  # expired is not stale


def test_lru_eviction(monkeypatch):
    """Each table drops its least recently used entry past its bound; a
    live hit refreshes an entry's place."""
    set_knobs(monkeypatch, COALESCE_WINDOW=10.0, MAX_POLICY_AGE=10.0)
    sched = scheduler(DegradeToLast())
    for i in range(_RANKING_ENTRIES):
        sched.install((i,), ((1, 1.0),), now=0.0)
    assert sched.lookup((0,), point(), now=0.0) == 1  # refresh 0
    sched.install(("one more",), ((1, 1.0),), now=0.0)  # evicts 1
    assert len(sched.rankings) == _RANKING_ENTRIES
    assert (1,) not in sched.rankings
    assert next(iter(sched.rankings)) == (2,)
    assert sched.lookup((0,), point(), now=0.0) == 1

    for i in range(_ANSWER_ENTRIES):
        sched.resolve_explain(point(label=i), now=0.0)
    assert sched.resolve_explain(point(label=0), now=0.0)[1] == "coalesced"
    sched.resolve_explain(point(label="one more"), now=0.0)  # evicts label 1
    assert len(sched.answers) == _ANSWER_ENTRIES
    assert identity_key(point(label=1)) not in sched.answers
    assert identity_key(point(label=0)) in sched.answers


def test_invalidate(monkeypatch):
    set_knobs(monkeypatch, COALESCE_WINDOW=5.0)
    sched = scheduler(DegradeToLast())
    sched.resolve(point(), now=0.0)
    sched.install(("s",), ((1, 1.0),), now=0.0)
    sched.invalidate()
    assert len(sched.answers) == 0
    assert len(sched.rankings) == 0
    assert sched.snapshot()["policy"]["invalidations"] == {"external": 1}


# ----------------------------------------------------------------------
# Counting: stale reclassification, hit rate, snapshot
# ----------------------------------------------------------------------

def test_stale_candidate_counts_as_miss_not_hit(monkeypatch):
    """A live ranking with none of its candidates offered did not answer;
    counting it as a hit would inflate ``hit_rate``."""
    set_knobs(monkeypatch, MAX_POLICY_AGE=5.0)
    sched = scheduler(DegradeToLast())
    stale = point((1, 2))
    sched.install(scenario_signature(stale), ((3, 1.0),), now=0.0)
    assert sched.resolve_explain(stale, now=0.0) == (2, "fallback")
    assert lookups(sched) == (0, 1, 1)
    assert sched.snapshot()["policy"]["hit_rate"] == 0.0
    # A genuine hit afterwards still counts as one.
    offered = point((1, 3))
    sched.install(scenario_signature(offered), ((3, 1.0),), now=0.0)
    assert sched.resolve_explain(offered, now=0.0) == (3, "policy")
    assert lookups(sched) == (1, 1, 1)


def test_hit_rate():
    sched = scheduler(DegradeToLast())
    sched.install(scenario_signature(point()), ((1, 1.0),), now=0.0)
    assert sched.resolve_explain(point(), now=0.0) == (1, "policy")
    assert sched.resolve_explain(point(label="x"), now=0.0) == (3, "fallback")
    assert sched.snapshot()["policy"]["hit_rate"] == 0.5
    assert merge_steering_snapshots([sched.snapshot()])["policy"]["hit_rate"] == 0.5


def test_snapshot_reports_counters(monkeypatch):
    """One answer per path, and ``resolutions`` counts each once: a
    denied or deferred resolution also ends as a fallback."""
    set_knobs(monkeypatch, COALESCE_WINDOW=0.5)
    sched = scheduler(DegradeToLast(), score_fn=lambda p, n: None)
    assert sched.resolve_explain(point(), now=0.0) == (3, "fallback")  # deferred
    assert sched.resolve_explain(point(), now=0.1) == (3, "coalesced")
    sched.score_fn = scored_by({2: 1.0})
    assert sched.resolve_explain(point(queue=1), now=1.0) == (2, "scored")
    assert sched.resolve_explain(point(queue=1), now=2.0) == (2, "policy")
    snap = sched.snapshot()
    assert snap["counters"] == {
        "coalesced": 1, "policy_hits": 1, "scored_rounds": 1,
        "fallbacks": 1, "deferred": 1, "denied": 0,
    }
    assert snap["resolutions"] == 4
    assert snap["spent_states"] == 3
    assert snap["coalesce"] == {"hits": 1, "misses": 3}
    # One lookup per resolution past the answer table: miss (t=0), miss
    # (t=1, then scored: picking from the new ranking is no lookup), hit
    # (t=2).
    assert snap["policy"] == {
        "installs": 1, "invalidations": {},
        "hits": 1, "misses": 2, "stale": 0, "hit_rate": 1 / 3,
    }


# ----------------------------------------------------------------------
# The scheduler as a cached resolver over prediction
# ----------------------------------------------------------------------

def test_cached_resolver_avoids_recompute(monkeypatch):
    set_knobs(monkeypatch, COALESCE_WINDOW=1.0)
    score = CountingScore({3: 1.0})
    sched = scheduler(degrade_to_first, score_fn=score)
    assert sched.resolve_explain(point(queue=4), now=0.0) == (3, "scored")
    assert sched.resolve_explain(point(queue=4), now=0.5) == (3, "coalesced")
    assert sched.resolve_explain(point(queue=6), now=0.5) == (3, "policy")
    assert score.calls == 1


def test_cached_resolver_distinguishes_labels(monkeypatch):
    set_knobs(monkeypatch, COALESCE_WINDOW=1.0)
    score = CountingScore({3: 1.0})
    sched = scheduler(degrade_to_first, score_fn=score)
    sched.resolve(point(label="a"), now=0.0)
    assert sched.resolve_explain(point(label="b"), now=0.0)[1] == "scored"
    assert score.calls == 2


def test_cached_value_no_longer_candidate_recomputes():
    score = CountingScore({2: 1.0})
    sched = scheduler(DegradeToLast(), score_fn=score)
    p = point((1, 2))
    # The scenario's ranking names only 3, which is no longer offered:
    # the stale miss must score again, not answer from the ranking.
    sched.install(scenario_signature(p), ((3, 1.0),), now=0.0)
    assert sched.resolve_explain(p, now=0.0) == (2, "scored")
    assert score.calls == 1
    assert lookups(sched) == (0, 1, 1)


def test_cached_resolver_stats_delegates_to_snapshot():
    cluster, runtimes = giver_cluster()
    snap = runtimes[0].amortized.snapshot()
    assert node_metrics(cluster.nodes[0])["steering"]["amortized"] == snap
    # One miss per fallback or scored answer, one hit per policy answer.
    counters = snap["counters"]
    assert snap["coalesce"] == {"hits": 0, "misses": 6}
    assert snap["policy"]["hits"] == counters["policy_hits"]
    assert snap["policy"]["misses"] == counters["scored_rounds"] + counters["fallbacks"]


def test_cached_resolver_speeds_up_predictive():
    """Integration: after one scored round, the giver's recurring
    choice is answered from the policy — and the policy picks what
    prediction picks."""
    cluster, runtimes = giver_cluster()
    snap = runtimes[0].amortized.snapshot()
    # t=1: no captured dispatch yet, so the fallback answers and capture
    # is armed; t=2 scores; t=3..6 answer from the installed ranking.
    assert snap["counters"]["deferred"] == 1
    assert snap["counters"]["scored_rounds"] == 1
    assert snap["counters"]["policy_hits"] == 4
    assert snap["resolutions"] == runtimes[0].stats["choices_resolved"] == 6
    assert cluster.service(1).wealth == 1  # the one fallback answer
    assert cluster.service(2).wealth >= 4  # predictive quality retained
