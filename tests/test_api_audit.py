"""No dead API: every name some ``__all__`` under ``src/repro`` exports is
used by code outside ``tests/``.

A public name only tests call is code kept alive for its own tests: it
documents a capability no run exercises.  A name counts as used where
code outside ``tests/`` (``src/``, ``examples/``, ``benchmarks/``,
``perf/``) reads an identifier or attribute of that name, or spells it
as a whole string (``getattr(module, "NAME")``), outside the body of
the function or class that defines it.  ``__all__`` entries and ``__init__`` re-exports keep
nothing alive, and neither does a mention in a comment or docstring.
A test double belongs under ``tests/``.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_TREES = ("src", "examples", "benchmarks", "perf")
# The package's declared API without a caller of its own: name -> reason.
ALLOWED = {
    "__version__": "the package version, read by packaging tools and people",
    "SafetyObjective": "paper section 3.2's objective language; no shipped service "
                       "scores a safety term of its own",
    "LivenessObjective": "paper section 3.2's objective language; no shipped service "
                         "scores a liveness term",
    "combine": "paper section 3.2's objective language: an equal-weight combination",
}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)


def _exported(module):
    """The names a module's ``__all__`` lists."""
    for node in module.body:
        if _is_all(node):
            return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


def _definitions(module):
    """name -> (first, last) line of each module-level function and class,
    whose body may name itself."""
    return {node.name: (node.lineno, node.end_lineno) for node in module.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _uses(module):
    """(name, line) of every identifier read, attribute named and string
    spelled, outside ``__all__``."""
    listed = {id(node) for statement in module.body if _is_all(statement)
              for node in ast.walk(statement)}
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in listed):
            yield node.value, node.lineno


def unused_exports():
    """The exported names no code outside ``tests/`` uses, sorted."""
    modules = {path: ast.parse(path.read_text())
               for tree in CALLER_TREES for path in sorted((REPO_ROOT / tree).rglob("*.py"))}
    exported = {name for path, module in modules.items()
                if PACKAGE in path.parents for name in _exported(module)}
    used = set()
    for path, module in modules.items():
        own = _definitions(module)
        for name, line in _uses(module):
            first, last = own.get(name, (0, -1))
            if name in exported and not first <= line <= last:
                used.add(name)
    return sorted(exported - used)


@pytest.fixture(scope="module")
def unused():
    return unused_exports()


def test_every_exported_name_has_a_caller_outside_tests(unused):
    assert [name for name in unused if name not in ALLOWED] == []


def test_every_allowed_name_is_exported_and_unused(unused):
    assert sorted(set(ALLOWED) - set(unused)) == []
