"""Every ``repro.runtime`` module stays within 400 physical lines, so
each Figure 1 box keeps fitting in one reading, the package as a whole
stays within its current size, and the runtime's constructor takes at
most 10 defaulted keywords.  ``repro.obs`` stays within its current
size too."""

import inspect
from pathlib import Path

import repro.obs
import repro.runtime
from repro.runtime import CrystalBallRuntime

MAX_LINES = 400
# The package's physical lines; lower it with each step toward ROADMAP
# item 9(c)'s 1,253.
MAX_PACKAGE_LINES = 1_367
MAX_RUNTIME_KEYWORDS = 10
# ``repro.obs``'s physical lines; ROADMAP item 11 allows it and
# ``sim/trace.py`` 2,142 together.
MAX_OBS_PACKAGE_LINES = 1_614


def _module_sizes(package=repro.runtime):
    directory = Path(package.__file__).parent
    return {path.name: len(path.read_text().splitlines())
            for path in sorted(directory.glob("*.py"))}


def test_runtime_modules_within_line_cap():
    sizes = _module_sizes()
    assert {name: n for name, n in sizes.items() if n > MAX_LINES} == {}


def test_runtime_package_within_line_cap():
    total = sum(_module_sizes().values())
    assert total <= MAX_PACKAGE_LINES, total


def test_obs_package_within_line_cap():
    total = sum(_module_sizes(repro.obs).values())
    assert total <= MAX_OBS_PACKAGE_LINES, total


def test_runtime_defaulted_keywords_within_cap():
    defaulted = [name for name, param
                 in inspect.signature(CrystalBallRuntime.__init__).parameters.items()
                 if param.default is not param.empty]
    assert len(defaulted) <= MAX_RUNTIME_KEYWORDS, defaulted
