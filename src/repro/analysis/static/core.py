"""Core of the domain static-analysis framework (``repro check``).

The repository's headline guarantee — bit-exact parity between serial,
parallel, cached and traced runs — rests on a handful of
coding disciplines: all randomness flows through seeded
:mod:`repro.sim.random` streams, no wall-clock reads feed simulation
state, probabilities stay in [0, 1] at every write, scheduling uses
virtual time, and everything crossing the process-pool seam pickles.
Runtime digest gates catch violations *after* a simulation has run; the
rules in :mod:`repro.analysis.static.rules` catch them at the AST level
before any simulation runs.

This module provides the framework those rules plug into:

* :class:`Rule` — the visitor interface a rule implements, registered via
  :func:`register` into the global :data:`RULES` catalogue;
* :class:`SourceFile` — one parsed file plus its package scope (``aqm``,
  ``sim``, ...) so rules can limit themselves to the paths where their
  invariant matters;
* :class:`Finding` — one diagnostic, with a stable JSON rendering;
* suppression comments — ``# repro: allow[RULE] justification`` on the
  offending line (or on a standalone comment line directly above it)
  silences a finding; the justification text is required by convention
  and surfaced in ``--format json`` output for review.

The orchestration (file walking, output formatting, CLI/CI entry points)
lives in :mod:`repro.analysis.static.runner`.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Severity",
    "Finding",
    "SourceFile",
    "Rule",
    "ProjectRule",
    "RULES",
    "register",
    "check_source",
    "parse_allow_comments",
]


class Severity(enum.Enum):
    """How seriously a finding should be taken by gates."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule at a source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-able rendering (the ``--format json`` schema)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format_human(self) -> str:
        """``path:line:col: severity RULE: message`` (editor-clickable)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule}: {self.message}"
        )


#: ``# repro: allow[DET]`` / ``# repro: allow[DET, PROB] because ...``
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[\s*([A-Za-z0-9_\s,]+?)\s*\]\s*(?P<why>.*)$"
)


def parse_allow_comments(
    lines: Sequence[str],
) -> Dict[int, Tuple[frozenset, str]]:
    """Map 1-based line number -> (allowed rule names, justification).

    An allow comment covers its own line.  When it sits on a standalone
    comment line (nothing but the comment), it also covers the next
    non-blank, non-comment line, so violations can be annotated without
    pushing the offending statement past the line-length limit.
    """
    allowed: Dict[int, Tuple[frozenset, str]] = {}
    pending: Optional[Tuple[frozenset, str]] = None
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        match = _ALLOW_RE.search(raw)
        if match:
            names = frozenset(
                name.strip().upper()
                for name in match.group(1).split(",")
                if name.strip()
            )
            why = match.group("why").strip()
            entry = (names, why)
            allowed[number] = entry
            if stripped.startswith("#"):
                # Standalone comment: carry over to the next code line.
                pending = entry
            else:
                pending = None
            continue
        if not stripped or stripped.startswith("#"):
            continue  # blank/comment lines keep a pending allow alive
        if pending is not None:
            names, why = pending
            if number in allowed:
                prior_names, prior_why = allowed[number]
                allowed[number] = (prior_names | names, prior_why or why)
            else:
                allowed[number] = pending
            pending = None
    return allowed


class SourceFile:
    """One Python file under analysis: text, AST and package scope.

    Parameters
    ----------
    path:
        Filesystem location (used for display and package inference).
    text:
        Source text; read from ``path`` when omitted.
    package:
        Package scope override (``"aqm"``, ``"sim"``, ...).  When None it
        is inferred from the path: the directory immediately below the
        last ``repro`` component (files directly inside ``repro/`` get
        ``""``).  Tests use the override to point fixture files at a rule
        without recreating the tree layout.
    display_path:
        Path string used in findings; defaults to ``path`` relativised to
        the current directory when possible.
    """

    def __init__(
        self,
        path: Path,
        text: Optional[str] = None,
        package: Optional[str] = None,
        display_path: Optional[str] = None,
    ):
        self.path = Path(path)
        self.text = self.path.read_text() if text is None else text
        self.lines = self.text.splitlines()
        if display_path is None:
            try:
                display_path = str(self.path.relative_to(Path.cwd()))
            except ValueError:
                display_path = str(self.path)
        self.display_path = display_path
        self.package = self._infer_package() if package is None else package
        self.allowed = parse_allow_comments(self.lines)
        self._tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None

    def _infer_package(self) -> str:
        parts = self.path.parts
        for index in range(len(parts) - 2, -1, -1):
            if parts[index] == "repro":
                return parts[index + 1] if index + 2 < len(parts) else ""
        return ""

    @property
    def tree(self) -> Optional[ast.Module]:
        """Parsed module, or None when the file does not parse."""
        if self._tree is None and self.syntax_error is None:
            try:
                self._tree = ast.parse(self.text, filename=str(self.path))
            except SyntaxError as exc:
                self.syntax_error = exc
        return self._tree

    def is_suppressed(self, rule: str, line: int) -> Tuple[bool, str]:
        """Whether ``rule`` is allowed on ``line``; returns (flag, why)."""
        entry = self.allowed.get(line)
        if entry is None:
            return False, ""
        names, why = entry
        return rule.upper() in names, why

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SourceFile {self.display_path} package={self.package!r}>"


class Rule:
    """Base class every lint rule extends.

    Subclasses set :attr:`name` (the suppression token), :attr:`severity`,
    a one-line :attr:`description` for ``--list-rules``, and optionally
    :attr:`packages` to scope the rule to specific sub-packages of
    ``repro`` (None applies everywhere).  :meth:`check` yields findings
    for one file; suppression filtering happens in the framework, not in
    the rule.
    """

    name: str = "RULE"
    severity: Severity = Severity.ERROR
    description: str = ""
    #: Sub-packages of ``repro`` the rule applies to (None = all files).
    packages: Optional[Tuple[str, ...]] = None

    def applies_to(self, source: SourceFile) -> bool:
        """Package-scope filter; override for finer-grained targeting."""
        return self.packages is None or source.package in self.packages

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield every violation found in ``source``.  Override."""
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(
            rule=self.name,
            severity=self.severity.value,
            path=source.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the *whole project* — pass 2 of the analyzer.

    Per-file rules see one AST at a time; a :class:`ProjectRule` is handed
    a :class:`~repro.analysis.static.graph.ProjectIndex` (symbol table +
    call graph over every file, built once per run) and can follow values
    across function and module boundaries.  Subclasses implement
    :meth:`check_project`; ``files`` restricts which files findings may
    be *emitted* for (the incremental runner passes the dirty set —
    summaries/annotations from clean files are still consulted).

    :meth:`check` keeps the per-file contract working — a project rule
    run over a single :class:`SourceFile` (fixture tests,
    :func:`check_source`) builds a one-file index on the fly — so
    fixture-based testing needs no special casing.
    """

    def check_project(
        self,
        index: "object",
        files: Optional[frozenset] = None,
    ) -> Iterator[Finding]:
        """Yield findings over the whole indexed project.  Override."""
        raise NotImplementedError

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Single-file fallback: index just this file and delegate."""
        from repro.analysis.static.graph import ProjectIndex

        index = ProjectIndex.build([source])
        yield from self.check_project(
            index, files=frozenset({source.display_path})
        )


#: Global rule catalogue, name -> instance, populated by :func:`register`.
RULES: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule instance to :data:`RULES`."""
    rule = rule_cls()
    if rule.name in RULES:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    RULES[rule.name] = rule
    return rule_cls


def check_source(
    source: SourceFile,
    rules: Optional[Iterable[Rule]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Run rules over one file; returns (findings, suppressed findings).

    A file that fails to parse yields a single ``SYNTAX`` error finding
    (whatever the rule selection) — a syntactically broken file can hide
    any violation.
    """
    selected = list(RULES.values()) if rules is None else list(rules)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    if source.tree is None:
        error = source.syntax_error
        findings.append(
            Finding(
                rule="SYNTAX",
                severity=Severity.ERROR.value,
                path=source.display_path,
                line=error.lineno or 1 if error else 1,
                col=(error.offset or 1) if error else 1,
                message=f"file does not parse: {error and error.msg}",
            )
        )
        return findings, suppressed
    for rule in selected:
        if not rule.applies_to(source):
            continue
        for finding in rule.check(source):
            hit, _why = source.is_suppressed(finding.rule, finding.line)
            (suppressed if hit else findings).append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, suppressed
