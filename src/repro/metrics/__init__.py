"""Code metrics used by the Section 4 development-effort comparison."""

from .compare import (
    ComparisonReport,
    ImplementationMetrics,
    compare_files,
    compare_randtree,
    measure_file,
)
from .complexity import (
    HandlerComplexity,
    ModuleComplexity,
    analyze_file,
    analyze_source,
    count_branches,
)
from .loc import logical_loc, logical_loc_of_file

__all__ = [
    "ComparisonReport",
    "ImplementationMetrics",
    "compare_files",
    "compare_randtree",
    "measure_file",
    "HandlerComplexity",
    "ModuleComplexity",
    "analyze_file",
    "analyze_source",
    "count_branches",
    "logical_loc",
    "logical_loc_of_file",
]
