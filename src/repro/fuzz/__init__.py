"""Adversarial scenario search: coverage-guided fuzzing of fault plans.

The chaos layer (:mod:`repro.chaos`) made the adversary *expressible*;
this package makes it *searchable*.  A :class:`FuzzCampaign` mutates
:class:`~repro.chaos.FaultPlan` schedules against a
:class:`~repro.fuzz.executor.FuzzTarget`, guided by trace-coverage
novelty and by near-violation scores mined from consequence
prediction (:class:`~repro.mc.ConsequencePredictor`) — the same
machinery CrystalBall uses to steer executions *away* from trouble,
here inverted to hunt it.  Discovered counterexamples are shrunk to
locally minimal plans (:mod:`repro.fuzz.shrink`) and packaged as
replayable artifacts with causal forensics
(:mod:`repro.fuzz.artifacts`).
"""

from .coverage import CoverageMap, near_violation_score
from .engine import CampaignResult, CorpusEntry, Counterexample, FuzzCampaign
from .executor import (
    ExecutionResult,
    FuzzTarget,
    PaxosFuzzTarget,
    RandTreeFuzzTarget,
    TARGETS,
    make_target,
)
from .mutators import MUTATORS, crossover, mutate_plan, random_event
from .shrink import ShrinkResult, Shrinker, shrink_counterexample
from .artifacts import (
    corpus_paths,
    counterexample_dict,
    forensics_for,
    load_counterexample,
    replay_counterexample,
    write_counterexample,
)

__all__ = [
    "CampaignResult",
    "CorpusEntry",
    "Counterexample",
    "CoverageMap",
    "ExecutionResult",
    "FuzzCampaign",
    "FuzzTarget",
    "MUTATORS",
    "PaxosFuzzTarget",
    "RandTreeFuzzTarget",
    "ShrinkResult",
    "Shrinker",
    "TARGETS",
    "corpus_paths",
    "counterexample_dict",
    "crossover",
    "forensics_for",
    "load_counterexample",
    "make_target",
    "mutate_plan",
    "near_violation_score",
    "random_event",
    "replay_counterexample",
    "shrink_counterexample",
    "write_counterexample",
]
