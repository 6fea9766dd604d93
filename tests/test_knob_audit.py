"""No dead knobs: every defaulted keyword of the prediction stack's
constructors, and of the T1/T2 experiment entry point, is passed by name
by some call outside the module that defines it.

A keyword nobody passes is a constant with a signature: it documents a
choice nobody makes and adds a configuration nobody tests.
"""

import ast
import inspect
from pathlib import Path

from repro.eval.paxos_experiment import run_throughput_experiment
from repro.mc import ConsequencePredictor, Explorer
from repro.runtime import AmortizedSteering, CrystalBallRuntime

REPO_ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "tests", "benchmarks", "examples", "perf")
AUDITED = (CrystalBallRuntime, ConsequencePredictor, Explorer, AmortizedSteering,
           run_throughput_experiment)


def keywords_passed_by_file():
    """path -> every keyword name some call in that file passes."""
    passed = {}
    for tree in CALLER_TREES:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            passed[path] = {
                keyword.arg
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                for keyword in node.keywords if keyword.arg
            }
    return passed


def test_every_defaulted_keyword_has_a_caller():
    by_file = keywords_passed_by_file()
    dead = {}
    for audited in AUDITED:
        home = Path(inspect.getsourcefile(audited)).resolve()
        passed = set().union(*(names for path, names in by_file.items() if path != home))
        signature = inspect.signature(
            audited.__init__ if inspect.isclass(audited) else audited)
        for name, param in signature.parameters.items():
            if param.default is not param.empty and name not in passed:
                dead.setdefault(audited.__name__, []).append(name)
    assert dead == {}
