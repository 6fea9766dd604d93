"""No dead knobs: every defaulted keyword of the prediction stack's
constructors, of the trace and telemetry recorders, and of the T1/T2
experiment entry point is passed by name to that callable (or to one of
its forwarders) by some call outside the module that defines it.

A keyword nobody passes is a constant with a signature: it documents a
choice nobody makes and adds a configuration nobody tests.  Keywords
are credited per callee, so a same-named keyword of another callable
(``Series(max_points=...)`` for ``TelemetrySampler``) keeps no knob alive.
"""

import ast
import inspect
from pathlib import Path

from repro.eval.paxos_experiment import run_throughput_experiment
from repro.mc import ConsequencePredictor, Explorer
from repro.obs import TelemetrySampler
from repro.runtime import AmortizedSteering, CrystalBallRuntime
from repro.sim.trace import TraceLog

REPO_ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "tests", "benchmarks", "examples", "perf")
AUDITED = (CrystalBallRuntime, ConsequencePredictor, Explorer, AmortizedSteering,
           TelemetrySampler, TraceLog, run_throughput_experiment)
# Calls whose keywords reach an audited callable unchanged.
FORWARDERS = {
    "CrystalBallRuntime": ("install_crystalball", "runtime_kwargs=dict(...)"),
}


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def keywords_passed_by_file():
    """path -> {callee -> every keyword name some call to it passes}.

    A ``name=dict(k=...)`` argument also credits ``k`` to the callee
    ``"name=dict(...)"``.
    """
    passed = {}
    for tree in CALLER_TREES:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            by_callee = passed[path] = {}
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                for keyword in node.keywords:
                    if not keyword.arg:
                        continue
                    by_callee.setdefault(_callee(node), set()).add(keyword.arg)
                    value = keyword.value
                    if isinstance(value, ast.Call) and _callee(value) == "dict":
                        by_callee.setdefault(f"{keyword.arg}=dict(...)", set()).update(
                            inner.arg for inner in value.keywords if inner.arg)
    return passed


def test_every_defaulted_keyword_has_a_caller():
    by_file = keywords_passed_by_file()
    dead = {}
    for audited in AUDITED:
        name = audited.__name__
        home = Path(inspect.getsourcefile(audited)).resolve()
        callees = (name, *FORWARDERS.get(name, ()))
        passed = set().union(*(
            by_callee.get(callee, set())
            for path, by_callee in by_file.items() if path != home
            for callee in callees
        ))
        signature = inspect.signature(
            audited.__init__ if inspect.isclass(audited) else audited)
        for param_name, param in signature.parameters.items():
            if param.default is not param.empty and param_name not in passed:
                dead.setdefault(name, []).append(param_name)
    assert dead == {}
