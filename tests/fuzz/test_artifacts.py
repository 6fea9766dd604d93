"""Artifacts: round-trips, forensics, and the curated corpus replay."""

import json
import os

import pytest

from repro.chaos import CrashEvent, FaultPlan, LinkFaultEvent
from repro.fuzz import (
    corpus_paths,
    counterexample_dict,
    forensics_for,
    load_counterexample,
    make_target,
    replay_counterexample,
    write_counterexample,
)
from repro.fuzz.artifacts import violation_nodes, violation_time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CORPUS_DIR = os.path.join(REPO_ROOT, "examples", "corpus")

# The same known (plan, seed) paxos counterexample the shrinker tests
# use — see tests/fuzz/test_shrink.py.
KNOWN_PLAN = FaultPlan(events=[
    LinkFaultEvent(at=0.0, drop=0.06707331180341818,
                   reorder=0.29838742338764623, reorder_jitter=0.2),
    CrashEvent(at=2.0159579868413515, node=1, amnesia=True,
               recover_at=2.4116837929608907),
])
KNOWN_SEED = 0


def test_violation_message_parsing():
    messages = ["t=7.5: randtree-invariant: inconsistent edge 2->1"]
    assert violation_nodes(messages) == [2, 1]
    assert violation_time(messages) == 7.5
    assert violation_time(["no timestamp here"]) is None


def test_artifact_round_trip(tmp_path):
    target = make_target("paxos")
    execution = target.execute(KNOWN_PLAN, KNOWN_SEED, probes=False)
    assert execution.violated
    artifact = counterexample_dict(
        target, KNOWN_PLAN, KNOWN_SEED, execution.violations,
        campaign_seed=1, execution=7, original_events=4,
        trace_digest=execution.trace_digest,
    )
    path = write_counterexample(str(tmp_path / "ce.json"), artifact)
    loaded = load_counterexample(path)
    assert loaded == artifact
    assert FaultPlan.from_dict(loaded["plan"]).digest() == KNOWN_PLAN.digest()
    # The grammar rendering in the artifact parses back to the plan.
    assert FaultPlan.parse(loaded["plan_text"]).digest() == KNOWN_PLAN.digest()


def test_replay_detects_reproduction(tmp_path):
    target = make_target("paxos")
    execution = target.execute(KNOWN_PLAN, KNOWN_SEED, probes=False)
    artifact = counterexample_dict(
        target, KNOWN_PLAN, KNOWN_SEED, execution.violations,
        trace_digest=execution.trace_digest,
    )
    _, reproduces = replay_counterexample(artifact)
    assert reproduces
    # A wrong recorded digest must fail the byte-determinism check.
    artifact["trace_digest"] = "0" * 64
    _, reproduces = replay_counterexample(artifact)
    assert not reproduces


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99}')
    with pytest.raises(ValueError, match="unsupported artifact version"):
        load_counterexample(str(path))


def test_forensics_explains_known_violation():
    target = make_target("paxos")
    explanation = forensics_for(target, KNOWN_PLAN, KNOWN_SEED)
    assert explanation is not None
    assert explanation.steps
    last = explanation.steps[-1]
    assert last.category == "net.deliver"
    # The chain ends at or before the violation instant.
    execution = target.execute(KNOWN_PLAN, KNOWN_SEED, probes=False)
    when = violation_time(execution.violations)
    assert when is not None and last.time <= when


def test_curated_corpus_exists():
    paths = corpus_paths(CORPUS_DIR)
    assert paths, f"no artifacts under {CORPUS_DIR}"
    targets = {load_counterexample(p)["target"] for p in paths}
    assert targets >= {"paxos", "randtree"}


@pytest.mark.parametrize(
    "path", corpus_paths(CORPUS_DIR),
    ids=[os.path.basename(p) for p in corpus_paths(CORPUS_DIR)],
)
def test_corpus_entry_replays(path):
    """The regression gate: every curated counterexample still
    reproduces its violation byte-for-byte."""
    artifact = load_counterexample(path)
    execution, reproduces = replay_counterexample(artifact)
    assert execution.violated, f"{path}: violation no longer reproduces"
    assert reproduces, f"{path}: trace digest drifted"


@pytest.mark.parametrize(
    "path", corpus_paths(CORPUS_DIR),
    ids=[os.path.basename(p) for p in corpus_paths(CORPUS_DIR)],
)
def test_corpus_forensics_regenerate(path):
    """Each curated artifact's forensics dict is exactly what a fresh
    causal re-run of its (target, plan, seed) explains today."""
    artifact = load_counterexample(path)
    explanation = forensics_for(
        make_target(artifact["target"]), FaultPlan.from_dict(artifact["plan"]),
        artifact["seed"])
    assert json.dumps(explanation.to_dict(), sort_keys=True) == \
        json.dumps(artifact["forensics"], sort_keys=True)


def test_corpus_paths_on_missing_directory():
    assert corpus_paths("/nonexistent/corpus/dir") == []
