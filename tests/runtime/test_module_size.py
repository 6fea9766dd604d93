"""Every ``repro.runtime`` module stays within 400 physical lines, so
each Figure 1 box keeps fitting in one reading."""

from pathlib import Path

import repro.runtime

MAX_LINES = 400


def test_runtime_modules_within_line_cap():
    package = Path(repro.runtime.__file__).parent
    sizes = {path.name: len(path.read_text().splitlines())
             for path in sorted(package.glob("*.py"))}
    assert {name: n for name, n in sizes.items() if n > MAX_LINES} == {}
