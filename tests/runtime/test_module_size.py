"""Every ``repro.runtime`` module stays within 400 physical lines, so
each Figure 1 box keeps fitting in one reading, and the runtime's
constructor takes at most 12 defaulted keywords."""

import inspect
from pathlib import Path

import repro.runtime
from repro.runtime import CrystalBallRuntime

MAX_LINES = 400
MAX_RUNTIME_KEYWORDS = 12


def test_runtime_modules_within_line_cap():
    package = Path(repro.runtime.__file__).parent
    sizes = {path.name: len(path.read_text().splitlines())
             for path in sorted(package.glob("*.py"))}
    assert {name: n for name, n in sizes.items() if n > MAX_LINES} == {}


def test_runtime_defaulted_keywords_within_cap():
    defaulted = [name for name, param
                 in inspect.signature(CrystalBallRuntime.__init__).parameters.items()
                 if param.default is not param.empty]
    assert len(defaulted) <= MAX_RUNTIME_KEYWORDS, defaulted
