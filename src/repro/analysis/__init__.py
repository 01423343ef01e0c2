"""Static analysis: ``repro lint`` and the RPR invariant rules.

The runtime equivalence harness pins every fast path bit-for-bit, but
only on the streams a test drives.  This package checks the same
family of contracts statically over the whole tree — determinism of
state-bearing modules (RPR001), state-contract symmetry (RPR002),
trusted-kernel hygiene (RPR003), no fast-path toggles (RPR004)
and registry-metadata completeness (RPR005).

Importing the package registers the built-in rules into :data:`RULES`
(the analysis mirror of the system/dataset/meta-feature registries).
"""

from repro.analysis.core import (
    DEFAULT_BASELINE,
    Finding,
    LintContext,
    LintReport,
    LintRule,
    RULES,
    SourceModule,
    load_baseline,
    register_rule,
    run_lint,
    save_baseline,
)
from repro.analysis import rules as _rules  # registers RPR001-005

__all__ = [
    "DEFAULT_BASELINE",
    "Finding",
    "LintContext",
    "LintReport",
    "LintRule",
    "RULES",
    "SourceModule",
    "load_baseline",
    "register_rule",
    "run_lint",
    "save_baseline",
]
