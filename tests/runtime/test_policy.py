"""Amortized prediction-driven steering: rankings, coalescing, scheduler.

The hypothesis properties at the bottom pin the two contracts the T2
bench relies on:

* **Equivalence when fresh** — with a live policy entry, the amortized
  scheduler returns exactly what a per-choice prediction round would
  have picked (the best-ranked candidate still offered), for any
  candidate set and scores.
* **Never stale-silently** — once a policy entry has aged past
  ``max_age`` (or was invalidated), resolution comes from the static
  fallback, never from the dead ranking.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.choice import ChoicePoint, ConfigurationError
from repro.choice.resolvers import FirstResolver
from repro.runtime import (
    AmortizedSteering,
    identity_key,
    merge_steering_snapshots,
    scenario_signature,
)


def point(candidates=(1, 2, 3), label="l", **info):
    return ChoicePoint(label=label, candidates=list(candidates), node_id=0, info=info)


class LastResolver:
    """Distinguishable from FirstResolver: picks the last candidate."""

    def __init__(self):
        self.calls = 0

    def resolve(self, p, node=None):
        self.calls += 1
        return p.candidates[-1]


def scored_by(scores):
    """A deterministic ScoreFn ranking candidates by a score table."""

    def score_fn(p, node):
        ranking = sorted(
            ((c, float(scores.get(c, 0.0))) for c in p.candidates),
            key=lambda pair: pair[1], reverse=True,
        )
        return tuple(ranking), len(p.candidates)

    return score_fn


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------

def test_identity_key_distinguishes_info():
    assert identity_key(point(queue=3)) != identity_key(point(queue=4))
    assert identity_key(point(queue=3)) == identity_key(point(queue=3))
    assert identity_key(point(label="a")) != identity_key(point(label="b"))


def test_scenario_signature_buckets_queue_depth():
    # 5..7 share a log2 bucket; 8 starts the next one.
    assert scenario_signature(point(queue=5)) == scenario_signature(point(queue=7))
    assert scenario_signature(point(queue=7)) != scenario_signature(point(queue=8))


def test_scenario_signature_clamps_conflicts():
    assert scenario_signature(point(conflicts=9.0)) == scenario_signature(point(conflicts=4.0))
    assert scenario_signature(point(conflicts=1.0)) != scenario_signature(point(conflicts=2.0))


def test_scenario_signature_separates_labels_and_candidates():
    assert scenario_signature(point(label="a")) != scenario_signature(point(label="b"))
    assert scenario_signature(point((1, 2))) != scenario_signature(point((1, 2, 3)))


# ----------------------------------------------------------------------
# Rankings (policy); the rules both tables share are in test_policy_cache
# ----------------------------------------------------------------------

def test_policy_install_and_lookup():
    sched = AmortizedSteering(fallback=LastResolver(), max_policy_age=5.0)
    p = point()
    sig = scenario_signature(p)
    assert sched.lookup(sig, p, now=0.0) is None
    sched.install(sig, ((2, 1.0), (1, 0.5), (3, 0.1)), now=0.0)
    assert sched.lookup(sig, p, now=1.0) == 2
    assert sched.resolve_explain(p, now=1.0) == (2, "policy")
    assert sched.policy_lookups == {"hits": 2, "misses": 1, "stale": 0}


def test_policy_entry_ages_out():
    sched = AmortizedSteering(fallback=LastResolver(), max_policy_age=2.0)
    p = point()
    sig = scenario_signature(p)
    sched.install(sig, ((2, 1.0),), now=0.0)
    assert sched.lookup(sig, p, now=2.0) == 2
    assert sched.lookup(sig, p, now=2.1) is None


def test_policy_skips_candidates_no_longer_offered():
    sched = AmortizedSteering(fallback=LastResolver(), max_policy_age=5.0)
    sig = ("s",)
    sched.install(sig, ((9, 1.0), (2, 0.5)), now=0.0)
    assert sched.lookup(sig, point((1, 2, 3)), now=0.0) == 2


def test_policy_all_candidates_gone_is_a_stale_miss():
    sched = AmortizedSteering(fallback=LastResolver(), max_policy_age=5.0)
    sig = ("s",)
    sched.install(sig, ((9, 1.0),), now=0.0)
    assert sched.lookup(sig, point((1, 2)), now=0.0) is None
    assert sched.policy_lookups == {"hits": 0, "misses": 1, "stale": 1}


def test_policy_invalidate_counts_reasons():
    sched = AmortizedSteering(fallback=LastResolver(), max_policy_age=5.0)
    sched.install(("s",), ((1, 1.0),), now=0.0)
    sched.invalidate("liveness")
    sched.invalidate("liveness")
    sched.invalidate("topology:link")
    assert sched.lookup(("s",), point(), now=0.0) is None
    snap = sched.snapshot()
    assert snap["policy"]["invalidations"] == {"liveness": 2, "topology:link": 1}


def test_policy_rejects_nonpositive_max_age():
    with pytest.raises(ConfigurationError):
        AmortizedSteering(fallback=LastResolver(), max_policy_age=0.0)


# ----------------------------------------------------------------------
# AmortizedSteering
# ----------------------------------------------------------------------

def test_missing_fallback_raises_at_install_time():
    with pytest.raises(ConfigurationError):
        AmortizedSteering(fallback=None)
    with pytest.raises(ConfigurationError):
        AmortizedSteering(fallback=object())  # no .resolve


def test_scored_round_installs_policy_for_scenario():
    sched = AmortizedSteering(
        fallback=FirstResolver(), score_fn=scored_by({1: 0.0, 2: 1.0, 3: 0.5}),
        coalesce_window=0.0,
    )
    value, source = sched.resolve_explain(point(queue=4), now=0.0)
    assert (value, source) == (2, "scored")
    # Same scenario bucket (queue 4..7), different exact info: policy hit.
    value, source = sched.resolve_explain(point(queue=6), now=1.0)
    assert (value, source) == (2, "policy")
    assert sched.counters["scored_rounds"] == 1
    assert sched.counters["policy_hits"] == 1


def test_coalescing_shares_one_resolution():
    sched = AmortizedSteering(
        fallback=FirstResolver(), score_fn=scored_by({3: 1.0}),
        coalesce_window=0.25,
    )
    assert sched.resolve_explain(point(queue=4), now=0.0) == (3, "scored")
    assert sched.resolve_explain(point(queue=4), now=0.2) == (3, "coalesced")
    # Outside the window the coalesced answer is gone (policy answers).
    assert sched.resolve_explain(point(queue=4), now=1.0) == (3, "policy")


def test_budget_exhaustion_defers_to_fallback():
    fallback = LastResolver()
    sched = AmortizedSteering(
        fallback=fallback, score_fn=scored_by({1: 1.0}),
        coalesce_window=0.0, rate_budget=1.0, initial_allowance=3.0,
    )
    # First round costs 3 states (three candidates) and exhausts the
    # t=0 allowance; a different scenario at t=0 must not score.
    assert sched.resolve_explain(point(queue=1), now=0.0)[1] == "scored"
    value, source = sched.resolve_explain(point(queue=100), now=0.0)
    assert (value, source) == (3, "fallback")
    assert fallback.calls == 1
    # Sim time passing replenishes the rate budget deterministically.
    assert sched.resolve_explain(point(queue=100), now=10.0)[1] == "scored"


def test_admission_denies_unaffordable_rounds_and_disarms_capture():
    class FakeNode:
        capture_dispatch = True
        network = None

    node = FakeNode()
    calls = []
    inner = scored_by({2: 1.0})

    def counting_score(p, n):
        calls.append(p)
        return inner(p, n)

    sched = AmortizedSteering(
        fallback=LastResolver(), score_fn=counting_score,
        cost_fn=lambda p, n: 1_000, coalesce_window=0.0,
        rate_budget=1.0, initial_allowance=10.0,
    )
    # Projected cost (1000) exceeds the allowance: the round is denied
    # *before* score_fn runs, and capture is disarmed so the node stops
    # paying for pre-dispatch snapshots it cannot use.
    value, source = sched.resolve_explain(point(), node=node, now=0.0)
    assert (value, source) == (3, "fallback")
    assert calls == []
    assert sched.counters["denied"] == 1
    assert node.capture_dispatch is False
    # Once the accruing allowance covers the projection, scoring resumes.
    assert sched.resolve_explain(point(), node=node, now=2_000.0)[1] == "scored"
    assert len(calls) == 1


def test_unknown_cost_admits_scoring():
    sched = AmortizedSteering(
        fallback=LastResolver(), score_fn=scored_by({2: 1.0}),
        cost_fn=lambda p, n: None, coalesce_window=0.0,
        rate_budget=1.0, initial_allowance=3.0,
    )
    # cost_fn returning None (no captured dispatch to size) admits.
    assert sched.resolve_explain(point(), now=0.0)[1] == "scored"
    assert sched.counters["denied"] == 0


def test_deferred_scoring_arms_capture():
    class FakeNode:
        capture_dispatch = False
        network = None

    node = FakeNode()
    sched = AmortizedSteering(
        fallback=FirstResolver(), score_fn=lambda p, n: None,
        coalesce_window=0.0,
    )
    value, source = sched.resolve_explain(point(), node=node, now=0.0)
    assert source == "fallback"
    assert node.capture_dispatch is True  # hungry for a checkpoint
    assert sched.counters["deferred"] == 1
    sched.score_fn = scored_by({2: 1.0})
    assert sched.resolve_explain(point(), node=node, now=1.0)[1] == "scored"
    assert node.capture_dispatch is False  # fed, disarmed


def test_invalidate_drops_policy_and_coalesced_answers():
    sched = AmortizedSteering(
        fallback=LastResolver(), score_fn=scored_by({1: 1.0}),
        coalesce_window=10.0, rate_budget=0.0, initial_allowance=3.0,
    )
    assert sched.resolve_explain(point(), now=0.0)[1] == "scored"
    sched.invalidate("liveness")
    # Budget spent and caches cleared: only the fallback remains.
    value, source = sched.resolve_explain(point(), now=0.1)
    assert (value, source) == (3, "fallback")
    assert sched.invalidations == {"liveness": 1}
    assert not sched.rankings


def test_merge_steering_snapshots_aggregates():
    a = AmortizedSteering(fallback=FirstResolver(), score_fn=scored_by({2: 1.0}),
                          max_policy_age=5.0)
    b = AmortizedSteering(fallback=FirstResolver(), score_fn=scored_by({2: 1.0}))
    a.resolve_explain(point(queue=4), now=0.0)
    a.resolve_explain(point(queue=4), now=10.0)  # policy aged out: rescored
    b.resolve_explain(point(queue=4), now=0.0)
    b.resolve_explain(point(queue=4), now=0.1)  # coalesced
    merged = merge_steering_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"]["scored_rounds"] == 3
    assert merged["counters"]["coalesced"] == 1
    assert merged["resolutions"] == 4
    assert merged["policy"]["installs"] == 3
    assert merged["spent_states"] == a.spent_states + b.spent_states
    assert merged["coalesce"] == {"hits": 1, "misses": 3}
    assert 0.0 <= merged["policy"]["hit_rate"] <= 1.0


# ----------------------------------------------------------------------
# Properties (satellite: amortized == per-choice when fresh; stale
# policies always fall back)
# ----------------------------------------------------------------------

candidate_sets = st.lists(
    st.integers(min_value=0, max_value=9), min_size=1, max_size=6, unique=True
)
score_tables = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@settings(max_examples=120, deadline=None)
@given(candidates=candidate_sets, scores=score_tables, queue=st.integers(0, 500))
def test_fresh_policy_equals_per_choice_prediction(candidates, scores, queue):
    """With a fresh policy, amortized resolution == one-shot prediction.

    The per-choice path picks the strict-improvement argmax over
    candidate scores in application order; the amortized path installs
    the stable-sorted ranking and answers from it.  They must agree on
    every candidate set, score table, and scenario."""
    score_fn = scored_by(scores)
    p = point(tuple(candidates), queue=queue)

    # Reference: what a per-choice prediction round would return.
    best = max(candidates, key=lambda c: (scores.get(c, 0.0), -candidates.index(c)))

    sched = AmortizedSteering(
        fallback=LastResolver(), score_fn=score_fn,
        coalesce_window=0.0, rate_budget=None,
    )
    value, source = sched.resolve_explain(p, now=0.0)
    assert source == "scored"
    assert value == best
    # And every policy answer within max_age agrees with the round.
    value, source = sched.resolve_explain(p, now=1.0)
    assert (value, source) == (best, "policy")


@settings(max_examples=120, deadline=None)
@given(
    candidates=candidate_sets,
    scores=score_tables,
    age=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    max_age=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)
def test_stale_policy_always_falls_back_never_stale_silently(
    candidates, scores, age, max_age
):
    """Past max_age a policy entry never answers: the resolution is the
    fallback's (or a fresh scored round's), not the dead ranking's."""
    p = point(tuple(candidates))
    fallback = LastResolver()
    sched = AmortizedSteering(
        fallback=fallback, score_fn=scored_by(scores),
        coalesce_window=0.0, max_policy_age=max_age,
        rate_budget=1.0, initial_allowance=float(len(candidates)),
    )
    assert sched.resolve_explain(p, now=0.0)[1] == "scored"
    value, source = sched.resolve_explain(p, now=age)
    if age <= max_age:
        # age == 0.0 can re-hit the zero-width coalesce entry instead.
        assert source in ("policy", "coalesced")
    else:
        # Aged out.  The budget replenished with sim time, so a fresh
        # scored round is legitimate; otherwise only the fallback is —
        # never the stale ranking presented as live.
        assert source in ("scored", "fallback")
        if source == "fallback":
            assert value == p.candidates[-1]
            assert fallback.calls >= 1


@settings(max_examples=60, deadline=None)
@given(candidates=candidate_sets, scores=score_tables)
def test_invalidated_policy_never_answers(candidates, scores):
    p = point(tuple(candidates))
    fallback = LastResolver()
    sched = AmortizedSteering(
        fallback=fallback, score_fn=scored_by(scores),
        coalesce_window=0.0, rate_budget=1.0,
        initial_allowance=float(len(candidates)),
    )
    assert sched.resolve_explain(p, now=0.0)[1] == "scored"
    sched.invalidate("steering")
    value, source = sched.resolve_explain(p, now=0.0)
    assert (value, source) == (p.candidates[-1], "fallback")
