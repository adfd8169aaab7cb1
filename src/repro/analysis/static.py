"""``repro check``: the ORD lint, deterministic iteration order.

The repository's headline guarantee — bit-exact parity between serial,
parallel, cached and traced runs — is gated at runtime by digest
checks.  Those gates compare runs inside one process or under one
pinned ``PYTHONHASHSEED``, so a result that depends on the hash seed
can pass them.  ORD catches that class of defect at the AST level
before any simulation runs.  docs/STATIC_ANALYSIS.md holds the audit
that kept this rule and deleted eight others.

ORD flags two classes of silent reproducibility breakage:

* **Set iteration** — ``for x in some_set`` (or a comprehension over
  one) visits elements in hash-table order, which depends on the exact
  insertion/deletion history and, for strings, on ``PYTHONHASHSEED``.
  If anything order-sensitive (event scheduling, probability draws,
  report rows) happens inside the loop, two runs of the same seed can
  diverge.  Order-insensitive reductions (``len``/``sum``/``min``/
  ``max``/membership) are fine and not flagged; iteration must go
  through ``sorted(...)``.  A no-argument ``.pop()`` on a set removes
  an arbitrary element and is flagged too.
* **Filesystem listings** — ``os.listdir``, ``glob``, ``Path.glob`` /
  ``rglob`` / ``iterdir`` and ``os.scandir`` return entries in
  filesystem order, which differs across machines and runs.  Iterating
  them unsorted makes cache scans and sweep discovery
  platform-dependent.

Dict iteration is deliberately *not* flagged: Python dicts are
insertion-ordered, so a dict filled deterministically iterates
deterministically.

Set-typedness is established within the file: set literals, ``set()`` /
``frozenset()`` calls, set comprehensions, and names or ``self.``
attributes annotated or assigned as sets anywhere in the module.  ORD
applies to the sub-packages of ``repro`` listed in :data:`ORD_PACKAGES`.

A finding is silenced by an allow comment, ``# repro: allow[ORD]
justification``, on the offending line or on a standalone comment line
directly above it.  A file that does not parse yields one ``SYNTAX``
finding, which no comment silences: a broken file can hide any
violation.

:func:`run_check` is the CLI body; it returns the process exit code
(0 = clean, 1 = findings, 2 = usage error).  Input that would check
nothing is a usage error, not a clean result: a path that does not
exist, is not a Python file, or is a directory without one.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import repro
from repro.errors import ConfigError

__all__ = [
    "ORD_PACKAGES",
    "Finding",
    "SourceFile",
    "parse_allow_comments",
    "check_source",
    "Report",
    "default_target",
    "iter_python_files",
    "analyze_paths",
    "run_check",
]

#: Sub-packages of ``repro`` ORD applies to.
ORD_PACKAGES = ("sim", "net", "aqm", "tcp", "core", "harness", "traffic", "metrics")


@dataclass(frozen=True)
class Finding:
    """One diagnostic at a source location (``rule`` is ORD or SYNTAX)."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format_human(self) -> str:
        """``path:line:col: RULE: message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def _location(finding: Finding) -> Tuple[str, int, int, str]:
    return finding.path, finding.line, finding.col, finding.rule


#: ``# repro: allow[ORD]`` / ``# repro: allow[ORD, OTHER] because ...``
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[\s*([A-Za-z0-9_\s,]+?)\s*\]")


def parse_allow_comments(lines: Sequence[str]) -> Dict[int, frozenset]:
    """Map 1-based line number -> rule names allowed on that line.

    An allow comment covers its own line.  When it sits on a standalone
    comment line (nothing but the comment), it also covers the next
    non-blank, non-comment line, so violations can be annotated without
    pushing the offending statement past the line-length limit.
    """
    allowed: Dict[int, frozenset] = {}
    pending: Optional[frozenset] = None
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        match = _ALLOW_RE.search(raw)
        if match:
            names = frozenset(
                name.strip().upper()
                for name in match.group(1).split(",")
                if name.strip()
            )
            allowed[number] = names
            # Standalone comment: carry over to the next code line.
            pending = names if stripped.startswith("#") else None
            continue
        if not stripped or stripped.startswith("#"):
            continue  # blank/comment lines keep a pending allow alive
        if pending is not None:
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
        ``""``).  Tests use the override to point fixture files at ORD
        without recreating the tree layout.
    """

    def __init__(
        self, path: Path, text: Optional[str] = None, package: Optional[str] = None
    ):
        self.path = Path(path)
        self.text = self.path.read_text() if text is None else text
        self.lines = self.text.splitlines()
        try:
            self.display_path = str(self.path.relative_to(Path.cwd()))
        except ValueError:
            self.display_path = str(self.path)
        self.package = self._infer_package() if package is None else package
        self.allowed = parse_allow_comments(self.lines)
        #: Parsed module, or None when the file does not parse.
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(self.text, filename=str(self.path))
        except SyntaxError as exc:
            self.syntax_error = exc

    def _infer_package(self) -> str:
        parts = self.path.parts
        for index in range(len(parts) - 2, -1, -1):
            if parts[index] == "repro":
                return parts[index + 1] if index + 2 < len(parts) else ""
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SourceFile {self.display_path} package={self.package!r}>"


# -- ORD ---------------------------------------------------------------------
#: An offending AST node and the message its finding carries.
Violation = Tuple[ast.AST, str]


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None when the chain has non-names.

    Only resolves pure Name/Attribute chains — ``obj().x`` or
    ``d["k"].x`` return None, which every caller treats as "unknown,
    don't flag" (the rule prefers false negatives over noise).
    """
    parts: list = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_name_call(node: ast.AST, name: str) -> bool:
    """True when ``node`` is a call to the bare name ``name``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


_LISTING_BARE = frozenset(
    {("os", "listdir"), ("os", "scandir"), ("glob", "glob"), ("glob", "iglob")}
)
_LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Is this expression statically known to be a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        chain = _attr_chain(node)
        if chain is not None and len(chain) == 2 and chain[0] == "self":
            return f"self.{chain[1]}" in set_names
    return False


def _annotation_is_set(annotation: ast.AST) -> bool:
    """``set[...]`` / ``Set[...]`` / ``frozenset[...]`` annotations."""
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


def _collect_set_names(tree: ast.Module) -> Set[str]:
    """Names/attributes assigned or annotated as sets anywhere in the file."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
            target = node.target
        elif isinstance(node, ast.Assign) and _is_set_expr(node.value, set()):
            if len(node.targets) == 1:
                target = node.targets[0]
        if target is None:
            continue
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            chain = _attr_chain(target)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                names.add(f"self.{chain[1]}")
    return names


def _is_listing_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = _attr_chain(node.func)
    if chain is None:
        # e.g. Path('.').iterdir() — the receiver is itself a call, so no
        # pure name chain exists; the method name alone is distinctive.
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
        )
    if len(chain) >= 2 and chain[-2:] in _LISTING_BARE:
        return True
    return len(chain) >= 2 and chain[-1] in _LISTING_METHODS


def _check_iter(iter_node: ast.AST, set_names: Set[str]) -> Iterator[Violation]:
    if _is_name_call(iter_node, "sorted"):
        return
    if _is_set_expr(iter_node, set_names):
        yield (
            iter_node,
            "iteration over a set visits elements in hash order; wrap "
            "in sorted(...) (order-insensitive reductions like len/min/"
            "max/membership are fine without iteration)",
        )
    elif _is_listing_call(iter_node):
        chain = _attr_chain(iter_node.func)
        name = ".".join(chain) if chain else "listing"
        yield (
            iter_node,
            f"{name}() yields entries in filesystem order, which varies "
            "across hosts/runs; wrap the call in sorted(...)",
        )


def _check_set_pop(node: ast.Call, set_names: Set[str]) -> Iterator[Violation]:
    """``known_set.pop()`` removes an arbitrary (hash-order) element."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "pop"
        and not node.args
        and _is_set_expr(func.value, set_names)
    ):
        yield (
            node,
            "set.pop() removes an arbitrary element (hash order); "
            "compute the element deterministically (e.g. min/max) and "
            "use .remove()",
        )


def _ord_violations(tree: ast.Module) -> Iterator[Violation]:
    """Every ORD violation in the module, in ``ast.walk`` order."""
    set_names = _collect_set_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from _check_iter(node.iter, set_names)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield from _check_iter(generator.iter, set_names)
        elif isinstance(node, ast.Call):
            yield from _check_set_pop(node, set_names)


def check_source(source: SourceFile) -> Tuple[List[Finding], List[Finding]]:
    """Check one file; returns (findings, suppressed findings)."""
    if source.tree is None:
        error = source.syntax_error
        finding = Finding(
            rule="SYNTAX",
            path=source.display_path,
            line=error.lineno or 1,
            col=error.offset or 1,
            message=f"file does not parse: {error.msg}",
        )
        return [finding], []
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    if source.package in ORD_PACKAGES:
        for node, message in _ord_violations(source.tree):
            finding = Finding(
                rule="ORD",
                path=source.display_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
            hit = "ORD" in source.allowed.get(finding.line, ())
            (suppressed if hit else findings).append(finding)
    findings.sort(key=_location)
    suppressed.sort(key=_location)
    return findings, suppressed


# -- runner ------------------------------------------------------------------
@dataclass
class Report:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    def format_human(self) -> str:
        """Readable report: one line per finding plus a summary line."""
        lines = [finding.format_human() for finding in self.findings]
        total = len(self.findings)
        noun = "finding" if total == 1 else "findings"
        summary = (
            f"{total} {noun} in {self.files_checked} files "
            f"({len(self.suppressed)} suppressed)"
        )
        lines.append(summary if total else f"OK: {summary}")
        return "\n".join(lines)


def default_target() -> Path:
    """The installed ``repro`` package directory (what CI checks)."""
    return Path(repro.__file__).parent


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Sorted traversal keeps report order identical across filesystems —
    the checker holds itself to its own ORD rule.  Raises
    :class:`~repro.errors.ConfigError` for a path that does not exist, is
    not a Python file, or is a directory without one: a check over
    nothing must not read as a clean check.
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


def analyze_paths(paths: Optional[Sequence[Path]] = None) -> Report:
    """Check every Python file under ``paths`` (default: the package)."""
    targets = [Path(p) for p in paths] if paths else [default_target()]
    report = Report()
    for path in iter_python_files(targets):
        findings, suppressed = check_source(SourceFile(path))
        report.findings.extend(findings)
        report.suppressed.extend(suppressed)
        report.files_checked += 1
    report.findings.sort(key=_location)
    report.suppressed.sort(key=_location)
    return report


def run_check(paths: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI body for ``repro check``; returns a process exit code."""
    out = out or sys.stdout
    try:
        report = analyze_paths(paths)
    except ConfigError as exc:
        print(f"repro check: {exc}", file=out)
        return 2
    print(report.format_human(), file=out)
    return 1 if report.findings else 0
