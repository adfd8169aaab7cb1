"""Orchestration for ``repro check``: two-pass analysis, ratchet, output.

Entry points:

* :func:`analyze_paths` — the programmatic API (the tier-1 tree test
  also times it against the analyzer's 10 s budget);
* :func:`run_check` — the CLI body behind ``repro check`` and
  ``tools/run_static_analysis.py``; returns a process exit code
  (0 = clean, 1 = findings/baseline violation, 2 = usage error).

Analysis is two-pass: pass 1 parses every file and builds the
:class:`~repro.analysis.static.graph.ProjectIndex` (symbol table + call
graph); pass 2 runs per-file rules file by file and hands the whole
index to each :class:`~repro.analysis.static.core.ProjectRule`
(``TAINT``, ``UNIT``).

**Incremental mode** (``--incremental``) keys a state file on each
file's content hash.  Only changed files *plus their reverse
call-graph/import dependents* are re-analyzed; findings for clean files
replay from the state cache.  The index itself is always rebuilt over
the full file set (parsing is the cheap part), so dirty-file findings
are computed against fresh cross-module facts — which is what makes the
incremental run agree finding-for-finding with a full run.

**Findings baseline** (``tools/findings_baseline.json``) generalizes the
mypy ratchet to every rule: per-rule ceilings; counts above a ceiling
fail, counts below auto-lower the ceiling in place (the ratchet only
tightens).  Without a baseline file the gate is the legacy strict mode:
any finding fails.

The JSON output schema (``--format json``) is versioned and locked by
``tests/analysis/test_static_analysis.py``::

    {
      "schema": 2,
      "files_checked": 63,
      "files_analyzed": 63,
      "rules": {"DET": "...", "ORD": "...", ...},
      "counts": {"DET": 0, ...},
      "findings": [{"rule", "severity", "path", "line", "col", "message"}],
      "suppressed": [... same shape ...]
    }

``--format sarif`` emits SARIF 2.1.0 for CI code-scanning annotations.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import repro
from repro.analysis.static import rules as _rules  # noqa: F401  (registers rules)
from repro.analysis.static.core import (
    RULES,
    Finding,
    ProjectRule,
    Rule,
    SourceFile,
    check_source,
)
from repro.analysis.static.graph import ProjectIndex

__all__ = [
    "Report",
    "default_target",
    "iter_python_files",
    "analyze_paths",
    "run_check",
    "load_baseline",
    "apply_baseline",
    "to_sarif",
    "JSON_SCHEMA_VERSION",
    "STATE_SCHEMA_VERSION",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_STATE_PATH",
]

JSON_SCHEMA_VERSION = 2
STATE_SCHEMA_VERSION = 1

#: Default ratchet location (relative to the invocation directory).
DEFAULT_BASELINE_PATH = Path("tools") / "findings_baseline.json"
#: Default incremental-state location (gitignored working file).
DEFAULT_STATE_PATH = Path(".repro-check-state.json")


@dataclass
class Report:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Files actually (re-)analyzed this run; equals ``files_checked``
    #: for a full run, the dirty-set size for an incremental one.
    files_analyzed: int = 0
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
            "files_analyzed": self.files_analyzed,
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
        scope = (
            f"{self.files_checked} files"
            if self.files_analyzed == self.files_checked
            else f"{self.files_checked} files "
            f"({self.files_analyzed} re-analyzed)"
        )
        summary = (
            f"{total} {noun} in {scope} "
            f"({len(self.rules)} rules, {len(self.suppressed)} suppressed)"
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
    """
    seen = {}
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            seen[candidate.resolve()] = candidate
    return [seen[key] for key in sorted(seen)]


def select_rules(names: Optional[Sequence[str]]) -> List[Rule]:
    """Resolve ``--rules`` tokens against the registry (case-insensitive)."""
    if not names:
        return list(RULES.values())
    selected = []
    for name in names:
        token = name.strip().upper()
        if not token:
            continue
        if token not in RULES:
            raise KeyError(
                f"unknown rule {name!r} (known: {', '.join(sorted(RULES))})"
            )
        selected.append(RULES[token])
    return selected


def _content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_state(state_path: Path) -> Optional[Dict[str, object]]:
    try:
        payload = json.loads(state_path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != STATE_SCHEMA_VERSION:
        return None
    return payload


def _finding_from_dict(entry: Dict[str, object]) -> Finding:
    return Finding(
        rule=str(entry["rule"]),
        severity=str(entry["severity"]),
        path=str(entry["path"]),
        line=int(entry["line"]),
        col=int(entry["col"]),
        message=str(entry["message"]),
    )


def _run_rules(
    sources: List[SourceFile],
    analyze: Set[str],
    rules: List[Rule],
    index: ProjectIndex,
) -> Tuple[Dict[str, List[Finding]], Dict[str, List[Finding]]]:
    """Pass 2 over the dirty set: findings/suppressed keyed by file."""
    per_file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    by_path = {source.display_path: source for source in sources}
    findings: Dict[str, List[Finding]] = {path: [] for path in analyze}
    suppressed: Dict[str, List[Finding]] = {path: [] for path in analyze}

    for path in analyze:
        file_findings, file_suppressed = check_source(
            by_path[path], per_file_rules
        )
        findings[path].extend(file_findings)
        suppressed[path].extend(file_suppressed)

    for rule in project_rules:
        emit_for = frozenset(
            path
            for path in analyze
            if rule.applies_to(by_path[path])
            and by_path[path].tree is not None
        )
        if not emit_for:
            continue
        for finding in rule.check_project(index, files=emit_for):
            source = by_path.get(finding.path)
            if source is None:
                continue
            hit, _why = source.is_suppressed(finding.rule, finding.line)
            (suppressed if hit else findings)[finding.path].append(finding)
    return findings, suppressed


def analyze_paths(
    paths: Optional[Sequence[Path]] = None,
    rule_names: Optional[Sequence[str]] = None,
    incremental: bool = False,
    state_path: Optional[Path] = None,
) -> Report:
    """Run the selected rules over every Python file under ``paths``.

    ``incremental=True`` consults/updates ``state_path`` (default
    :data:`DEFAULT_STATE_PATH`): files whose content hash is unchanged —
    and none of whose dependencies changed — replay cached findings.
    """
    targets = [Path(p) for p in paths] if paths else [default_target()]
    rules = select_rules(rule_names)
    rule_names_sorted = sorted(rule.name for rule in rules)
    report = Report(rules={rule.name: rule.description for rule in rules})

    sources = [SourceFile(p) for p in iter_python_files(targets)]
    report.files_checked = len(sources)
    # Pass 1: project-wide symbol table + call graph (always full — the
    # dirty files must be analyzed against fresh cross-module facts).
    index = ProjectIndex.build(sources)

    all_paths = {source.display_path for source in sources}
    hashes = {source.display_path: _content_hash(source.text) for source in sources}

    state: Optional[Dict[str, object]] = None
    state_file = Path(state_path) if state_path is not None else DEFAULT_STATE_PATH
    if incremental:
        state = _load_state(state_file)
        if state is not None and state.get("rules") != rule_names_sorted:
            state = None  # rule selection changed: full re-analysis

    cached_files: Dict[str, Dict[str, object]] = {}
    if state is not None:
        raw_files = state.get("files")
        if isinstance(raw_files, dict):
            cached_files = raw_files

    changed = {
        path
        for path in all_paths
        if cached_files.get(path, {}).get("hash") != hashes[path]
    }
    if state is None:
        analyze = set(all_paths)
    else:
        analyze = index.dependents_of(changed) & all_paths

    findings_by_path, suppressed_by_path = _run_rules(
        sources, analyze, rules, index
    )
    report.files_analyzed = len(analyze)

    for path in sorted(all_paths):
        if path in analyze:
            report.findings.extend(findings_by_path[path])
            report.suppressed.extend(suppressed_by_path[path])
        else:
            cached = cached_files.get(path, {})
            report.findings.extend(
                _finding_from_dict(e) for e in cached.get("findings", [])
            )
            report.suppressed.extend(
                _finding_from_dict(e) for e in cached.get("suppressed", [])
            )

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if incremental:
        new_state: Dict[str, object] = {
            "schema": STATE_SCHEMA_VERSION,
            "rules": rule_names_sorted,
            "files": {},
        }
        files_out = new_state["files"]
        for path in sorted(all_paths):
            if path in analyze:
                entry = {
                    "hash": hashes[path],
                    "findings": [
                        f.to_dict() for f in findings_by_path[path]
                    ],
                    "suppressed": [
                        f.to_dict() for f in suppressed_by_path[path]
                    ],
                }
            else:
                entry = dict(cached_files[path])
                entry["hash"] = hashes[path]
            files_out[path] = entry
        try:
            state_file.write_text(
                json.dumps(new_state, indent=2, sort_keys=True) + "\n"
            )
        except OSError:
            pass  # read-only checkout: incremental just degrades to full
    return report


# -- findings baseline (the generalized ratchet) ---------------------------
def load_baseline(path: Path) -> Optional[Dict[str, int]]:
    """Per-rule ceilings from a baseline file, or None when absent/bad."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    ceilings = payload.get("max_findings")
    if not isinstance(ceilings, dict):
        return None
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
    * no baseline file: ``require=True`` fails, otherwise legacy strict
      mode (any finding → exit 1).
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
    for rule, ceiling in ceilings.items():
        # A rule not selected this run keeps its ceiling untouched.
        merged.setdefault(rule, ceiling)
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


# -- SARIF -----------------------------------------------------------------
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def to_sarif(report: Report) -> Dict[str, object]:
    """SARIF 2.1.0 rendering of a report (``--format sarif``)."""

    def result(finding: Finding) -> Dict[str, object]:
        return {
            "ruleId": finding.rule,
            "level": finding.severity,
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
        }

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": [
                            {
                                "id": name,
                                "shortDescription": {
                                    "text": report.rules[name]
                                },
                            }
                            for name in sorted(report.rules)
                        ],
                    }
                },
                "results": [result(f) for f in report.findings],
            }
        ],
    }


def run_check(
    paths: Optional[Sequence[str]] = None,
    rule_names: Optional[Sequence[str]] = None,
    output_format: str = "human",
    list_rules: bool = False,
    incremental: bool = False,
    state_path: Optional[str] = None,
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
    try:
        report = analyze_paths(
            [Path(p) for p in paths] if paths else None,
            rule_names,
            incremental=incremental,
            state_path=Path(state_path) if state_path else None,
        )
    except KeyError as exc:
        print(f"repro check: {exc.args[0]}", file=out)
        return 2
    if output_format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True), file=out)
    elif output_format == "sarif":
        print(json.dumps(to_sarif(report), indent=2, sort_keys=True), file=out)
    else:
        print(report.format_human(), file=out)
    use_baseline = (
        baseline is not None or update_baseline or require_baseline
    )
    if use_baseline:
        baseline_file = Path(baseline) if baseline else DEFAULT_BASELINE_PATH
        return apply_baseline(
            report,
            baseline_file,
            update=update_baseline,
            require=require_baseline,
            out=out,
        )
    return 1 if report.findings else 0
