"""Coverage signals: magnitude buckets, feature novelty, climb score."""

import random
from collections import Counter

import pytest

from repro.fuzz import make_target
from repro.fuzz.coverage import (
    CoverageMap,
    chaos_features,
    magnitude,
    near_violation_score,
    prediction_features,
    trace_features,
)


def test_magnitude_buckets():
    assert magnitude(0) == 0
    assert magnitude(1) == 1
    assert magnitude(3) == 2
    assert magnitude(4) == magnitude(7) == 3
    # Within-bucket changes are not novel; cross-bucket changes are.
    assert magnitude(80) == magnitude(96)
    assert magnitude(0) != magnitude(4)


def test_chaos_features_skip_zero_counts():
    features = chaos_features({"dropped": 5, "crashed": 0})
    assert features == {("chaos", "dropped", magnitude(5))}


def test_prediction_features_include_depth():
    features = prediction_features({"agreement": 3}, min_depth=2)
    assert ("pred", "agreement", magnitude(3)) in features
    assert ("pred-depth", 2) in features
    assert prediction_features({}, None) == set()


def test_coverage_map_novelty_is_first_seen_only():
    cov = CoverageMap()
    assert cov.observe(frozenset({("cat", "net.send", 3)})) == 1
    assert cov.observe(frozenset({("cat", "net.send", 3)})) == 0
    assert cov.observe(frozenset({("cat", "net.send", 3),
                                  ("cat", "net.deliver", 2)})) == 1
    assert len(cov) == 2


def test_coverage_map_digest_dedup():
    cov = CoverageMap()
    assert not cov.seen_trace("aaa")
    assert cov.seen_trace("aaa")
    assert not cov.seen_plan("bbb")
    assert cov.seen_plan("bbb")
    snap = cov.snapshot()
    assert snap["unique_traces"] == 1
    assert snap["unique_plans"] == 1


def test_near_violation_score_gradient():
    # No predicted violations -> no signal.
    assert near_violation_score({}, None, chain_depth=3) == 0.0
    # Closer predicted violations score strictly higher.
    far = near_violation_score({"agreement": 2}, min_depth=3, chain_depth=3)
    near = near_violation_score({"agreement": 2}, min_depth=1, chain_depth=3)
    assert near > far > 0.0
    # Breaking a second property's neighborhood adds signal.
    one = near_violation_score({"agreement": 4}, min_depth=2, chain_depth=3)
    two = near_violation_score({"agreement": 2, "coherence": 2},
                               min_depth=2, chain_depth=3)
    assert two > one


@pytest.mark.parametrize("target_name", ["randtree", "paxos"])
def test_trace_features_read_counts_like_a_full_scan(target_name):
    # The features come from the log's category counts; they must be the
    # ones a scan over every record finds.
    target = make_target(target_name)
    plan = target.random_plan(random.Random(3))
    trace = target.execute(plan, 3, probes=False, keep_cluster=True).cluster.sim.trace
    scanned = Counter(record.category for record in trace)
    assert len(scanned) > 3
    assert trace_features(trace) == {("cat", category, magnitude(count))
                                     for category, count in scanned.items()}
