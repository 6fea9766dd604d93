"""No dead knobs: every defaulted keyword of the prediction stack's
constructors, of the trace and telemetry recorders, of every experiment
entry point and world builder, and of a fuzz execution is passed by name
to that callable (or to one of its forwarders) by some call outside the
module that defines it, or inside it for a callable in
``HOME_CALLERS``.

A keyword nobody passes is a constant with a signature: it documents a
choice nobody makes and adds a configuration nobody tests.  Keywords
are credited per callee, so a same-named keyword of another callable
(``Series(max_points=...)`` for ``TelemetrySampler``) keeps no knob alive.

A prediction-stack keyword must be passed outside ``tests/`` as well: a
test that sets a knob no run sets tests a configuration nobody runs.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro.eval
from repro.eval.chaos_experiment import standard_plans
from repro.eval.paxos_experiment import build_paxos_cluster
from repro.eval.tree_experiment import build_tree_cluster
from repro.fuzz import FuzzTarget
from repro.mc import ConsequencePredictor, Explorer
from repro.obs import TelemetrySampler
from repro.runtime import AmortizedSteering, CrystalBallRuntime
from repro.sim.trace import TraceLog

REPO_ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "tests", "benchmarks", "examples", "perf")
EXPERIMENT_RUNNERS = tuple(getattr(repro.eval, name) for name in repro.eval.__all__
                           if name.startswith("run_"))
AUDITED = (CrystalBallRuntime, ConsequencePredictor, Explorer, AmortizedSteering,
           TelemetrySampler, TraceLog, *EXPERIMENT_RUNNERS, standard_plans,
           build_tree_cluster, build_paxos_cluster, FuzzTarget.execute)
# Audited again with callers under ``tests/`` left out.
PREDICTION_STACK = (CrystalBallRuntime, ConsequencePredictor, AmortizedSteering)
# Calls whose keywords reach an audited callable unchanged.
FORWARDERS = {
    "CrystalBallRuntime": ("install_crystalball", "runtime_kwargs=dict(...)"),
}
# Audited callables whose home module also calls them: the reliable-join
# comparison runs the chaos tree with ``reliability`` set.
HOME_CALLERS = {"run_chaos_tree_experiment"}


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dict_keywords(value):
    """The keyword names of a ``dict(k=...)`` call, else ``None``."""
    if isinstance(value, ast.Call) and _callee(value) == "dict":
        return {keyword.arg for keyword in value.keywords if keyword.arg}
    return None


def keywords_passed_by_file():
    """path -> {callee -> every keyword name some call to it passes}.

    A ``**NAME`` argument credits the keywords of the ``NAME = dict(...)``
    bound in the same file.  A ``name=dict(k=...)`` argument also credits
    ``k`` to the callee ``"name=dict(...)"``.
    """
    passed = {}
    for tree in CALLER_TREES:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            by_callee = passed[path] = {}
            module = ast.parse(path.read_text())
            bound = {
                target.id: _dict_keywords(node.value)
                for node in ast.walk(module) if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name) and _dict_keywords(node.value) is not None
            }
            for node in ast.walk(module):
                if not isinstance(node, ast.Call):
                    continue
                for keyword in node.keywords:
                    if not keyword.arg:
                        if isinstance(keyword.value, ast.Name):
                            by_callee.setdefault(_callee(node), set()).update(
                                bound.get(keyword.value.id, ()))
                        continue
                    by_callee.setdefault(_callee(node), set()).add(keyword.arg)
                    inner = _dict_keywords(keyword.value)
                    if inner is not None:
                        by_callee.setdefault(f"{keyword.arg}=dict(...)", set()).update(inner)
    return passed


@pytest.fixture(scope="module")
def by_file():
    return keywords_passed_by_file()


def dead_keywords(audited_callables, by_file):
    """name -> the defaulted keywords no call in ``by_file`` passes."""
    dead = {}
    for audited in audited_callables:
        name = audited.__name__
        home = Path(inspect.getsourcefile(audited)).resolve()
        callees = (name, *FORWARDERS.get(name, ()))
        passed = set().union(*(
            by_callee.get(callee, set())
            for path, by_callee in by_file.items()
            if path != home or name in HOME_CALLERS
            for callee in callees
        ))
        signature = inspect.signature(
            audited.__init__ if inspect.isclass(audited) else audited)
        for param_name, param in signature.parameters.items():
            if param.default is not param.empty and param_name not in passed:
                dead.setdefault(name, []).append(param_name)
    return dead


def test_every_defaulted_keyword_has_a_caller(by_file):
    assert dead_keywords(AUDITED, by_file) == {}


def test_prediction_stack_keywords_have_a_caller_outside_tests(by_file):
    tests = REPO_ROOT / "tests"
    outside = {path: by_callee for path, by_callee in by_file.items()
               if tests not in path.parents}
    assert dead_keywords(PREDICTION_STACK, outside) == {}
