"""Orchestration for ``repro check``: file walking, ratchet, output.

Entry points:

* :func:`analyze_paths` — the programmatic API (the tier-1 tree test
  also times it against the analyzer's 10 s budget);
* :func:`run_check` — the CLI body behind ``repro check``; returns a
  process exit code (0 = clean, 1 = findings/baseline violation,
  2 = usage error).

Analysis is one pass: every file is parsed once and every selected rule
runs over it.  Input that would check nothing is a usage error, not a
clean result: a path that does not exist or holds no Python file, an
empty ``--rules`` selection, an unknown rule, and a baseline ceiling for
a rule that is not registered.

**Findings baseline** (``tools/findings_baseline.json``): per-rule
ceilings; counts above a ceiling fail, counts below auto-lower the
ceiling in place (the ratchet only tightens).  Without a baseline file
the gate is strict: any finding fails.

The JSON output schema (``--format json``) is versioned and locked by
``tests/analysis/test_static_analysis.py``::

    {
      "schema": 3,
      "files_checked": 63,
      "rules": {"ORD": "...", ...},
      "counts": {"ORD": 0, ...},
      "findings": [{"rule", "severity", "path", "line", "col", "message"}],
      "suppressed": [... same shape ...]
    }
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro
from repro.analysis.static import rules as _rules  # noqa: F401  (registers rules)
from repro.analysis.static.core import RULES, Finding, Rule, SourceFile, check_source
from repro.errors import ConfigError

__all__ = [
    "Report",
    "default_target",
    "iter_python_files",
    "analyze_paths",
    "run_check",
    "load_baseline",
    "apply_baseline",
    "JSON_SCHEMA_VERSION",
    "DEFAULT_BASELINE_PATH",
]

JSON_SCHEMA_VERSION = 3

#: Default ratchet location (relative to the invocation directory).
DEFAULT_BASELINE_PATH = Path("tools") / "findings_baseline.json"


@dataclass
class Report:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules: Dict[str, str] = field(default_factory=dict)

    @property
    def counts(self) -> Dict[str, int]:
        """Findings per rule (zero-filled for every selected rule)."""
        counts = {name: 0 for name in self.rules}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> Dict[str, object]:
        """The versioned ``--format json`` payload."""
        return {
            "schema": JSON_SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "rules": dict(sorted(self.rules.items())),
            "counts": dict(sorted(self.counts.items())),
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
        }

    def format_human(self) -> str:
        """Readable report: one line per finding plus a summary line."""
        lines = [finding.format_human() for finding in self.findings]
        total = len(self.findings)
        noun = "finding" if total == 1 else "findings"
        rules = "rule" if len(self.rules) == 1 else "rules"
        summary = (
            f"{total} {noun} in {self.files_checked} files "
            f"({len(self.rules)} {rules}, {len(self.suppressed)} suppressed)"
        )
        lines.append(summary if total else f"OK: {summary}")
        return "\n".join(lines)


def default_target() -> Path:
    """The installed ``repro`` package directory (what CI checks)."""
    return Path(repro.__file__).parent


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Sorted traversal keeps report order (and the JSON payload) identical
    across filesystems — the checker holds itself to its own ORD rule.
    Raises :class:`~repro.errors.ConfigError` for a path that does not
    exist, is not a Python file, or is a directory without one: a check
    over nothing must not read as a clean check.
    """
    seen = {}
    for path in paths:
        if path.is_dir():
            candidates = [
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            ]
            if not candidates:
                raise ConfigError(f"no Python files under {path}")
        elif path.suffix == ".py" and path.is_file():
            candidates = [path]
        elif path.exists():
            raise ConfigError(f"not a Python file: {path}")
        else:
            raise ConfigError(f"no such file or directory: {path}")
        for candidate in candidates:
            seen[candidate.resolve()] = candidate
    return [seen[key] for key in sorted(seen)]


def _known_rules() -> str:
    return ", ".join(sorted(RULES))


def select_rules(names: Optional[Sequence[str]]) -> List[Rule]:
    """Resolve ``--rules`` tokens against the registry (case-insensitive).

    ``None`` selects every rule; a selection whose tokens are all empty
    (``--rules ,``) or that names an unregistered rule is a usage error.
    """
    if names is None:
        return list(RULES.values())
    tokens = [name.strip().upper() for name in names if name.strip()]
    if not tokens:
        raise ConfigError(f"empty rule selection (known: {_known_rules()})")
    for token in tokens:
        if token not in RULES:
            raise ConfigError(
                f"unknown rule {token!r} (known: {_known_rules()})"
            )
    return [RULES[token] for token in tokens]


def analyze_paths(
    paths: Optional[Sequence[Path]] = None,
    rule_names: Optional[Sequence[str]] = None,
) -> Report:
    """Run the selected rules over every Python file under ``paths``."""
    targets = [Path(p) for p in paths] if paths else [default_target()]
    rules = select_rules(rule_names)
    report = Report(rules={rule.name: rule.description for rule in rules})
    for path in iter_python_files(targets):
        findings, suppressed = check_source(SourceFile(path), rules)
        report.findings.extend(findings)
        report.suppressed.extend(suppressed)
        report.files_checked += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


# -- findings baseline (the ratchet) ---------------------------------------
def load_baseline(path: Path) -> Optional[Dict[str, int]]:
    """Per-rule ceilings from a baseline file, or None when absent/bad.

    A ceiling for a rule that is not registered raises
    :class:`~repro.errors.ConfigError`, so a deleted rule's key cannot
    linger in the file.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    ceilings = payload.get("max_findings")
    if not isinstance(ceilings, dict):
        return None
    for rule in sorted(ceilings):
        if rule not in RULES:
            raise ConfigError(
                f"baseline {path} has a ceiling for unknown rule {rule!r} "
                f"(known: {_known_rules()})"
            )
    return {
        str(rule): int(count)
        for rule, count in ceilings.items()
        if isinstance(count, int) and not isinstance(count, bool)
    }


def _write_baseline(path: Path, counts: Dict[str, int]) -> None:
    payload = {
        "_comment": (
            "Findings ratchet for `repro check` (all rules). Counts above "
            "a ceiling fail CI; counts below auto-lower it. Regenerate "
            "with `repro check --update-baseline` only when a rule "
            "legitimately gains findings that cannot yet be fixed."
        ),
        "max_findings": dict(sorted(counts.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def apply_baseline(
    report: Report,
    baseline_path: Path,
    update: bool = False,
    require: bool = False,
    out=None,
) -> int:
    """Ratchet the report against the baseline; returns an exit code.

    * ``update=True`` rewrites the baseline to the current counts.
    * count > ceiling → failure (exit 1), listing the offending rules.
    * count < ceiling → the ceiling is lowered in place (ratchet).
    * no baseline file: ``require=True`` fails, otherwise strict mode
      (any finding → exit 1).
    """
    out = out or sys.stdout
    counts = report.counts
    if update:
        _write_baseline(baseline_path, counts)
        print(f"repro check: baseline updated at {baseline_path}", file=out)
        return 0
    ceilings = load_baseline(baseline_path)
    if ceilings is None:
        if require:
            print(
                f"repro check: baseline required but not found at "
                f"{baseline_path} (run --update-baseline to create it)",
                file=out,
            )
            return 1
        return 1 if report.findings else 0
    failures = []
    lowered = {}
    merged = dict(ceilings)
    for rule, count in sorted(counts.items()):
        ceiling = ceilings.get(rule, 0)
        if count > ceiling:
            failures.append((rule, count, ceiling))
        elif count < ceiling:
            lowered[rule] = count
            merged[rule] = count
    if failures:
        for rule, count, ceiling in failures:
            print(
                f"repro check: {rule}: {count} findings exceed the "
                f"baseline ceiling of {ceiling}",
                file=out,
            )
        return 1
    if lowered:
        _write_baseline(baseline_path, merged)
        pairs = ", ".join(f"{r}->{c}" for r, c in sorted(lowered.items()))
        print(f"repro check: baseline ratcheted down ({pairs})", file=out)
    return 0


def run_check(
    paths: Optional[Sequence[str]] = None,
    rule_names: Optional[Sequence[str]] = None,
    output_format: str = "human",
    list_rules: bool = False,
    baseline: Optional[str] = None,
    update_baseline: bool = False,
    require_baseline: bool = False,
    out=None,
) -> int:
    """CLI body for ``repro check``; returns a process exit code."""
    out = out or sys.stdout
    if list_rules:
        for name in sorted(RULES):
            print(f"{name:7s} {RULES[name].description}", file=out)
        return 0
    baseline_file = None
    if baseline is not None or update_baseline or require_baseline:
        baseline_file = Path(baseline) if baseline else DEFAULT_BASELINE_PATH
    try:
        report = analyze_paths(
            [Path(p) for p in paths] if paths else None, rule_names
        )
        if baseline_file is not None and not update_baseline:
            load_baseline(baseline_file)  # a bad key fails before any output
    except ConfigError as exc:
        print(f"repro check: {exc}", file=out)
        return 2
    if output_format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True), file=out)
    else:
        print(report.format_human(), file=out)
    if baseline_file is None:
        return 1 if report.findings else 0
    return apply_baseline(
        report,
        baseline_file,
        update=update_baseline,
        require=require_baseline,
        out=out,
    )
