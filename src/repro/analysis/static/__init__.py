"""Domain-aware static analysis (``repro check``).

An AST-level lint for the one determinism invariant the runtime digest
gates can miss: iteration order (ORD).  Iterating a set of strings
visits them in ``PYTHONHASHSEED`` order, so a result can depend on the
process's hash seed while every in-process parity gate (and the
``perf/e2e`` golden runs, which pin the hash seed) stays green.  See
docs/STATIC_ANALYSIS.md for the audit that kept this rule and deleted
eight others, the suppression syntax
(``# repro: allow[RULE] justification``), the findings-baseline ratchet
and the guide to adding a rule.
"""

from repro.analysis.static.core import (
    RULES,
    Finding,
    Rule,
    Severity,
    SourceFile,
    check_source,
    register,
)
from repro.analysis.static.runner import (
    JSON_SCHEMA_VERSION,
    Report,
    analyze_paths,
    apply_baseline,
    default_target,
    load_baseline,
    run_check,
)

__all__ = [
    "RULES",
    "Finding",
    "Rule",
    "Severity",
    "SourceFile",
    "check_source",
    "register",
    "JSON_SCHEMA_VERSION",
    "Report",
    "analyze_paths",
    "apply_baseline",
    "default_target",
    "load_baseline",
    "run_check",
]
