"""The ORD lint: it fires on fixtures that violate it (one shaped like
its audit plant) and stays quiet on the compliant twins, suppressions
behave as documented, input that checks nothing is a usage error, and —
the acceptance gate — the repository's own tree is clean.
"""

import ast
import time
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis.static import (
    SourceFile,
    analyze_paths,
    check_source,
    parse_allow_comments,
    run_check,
)

#: Full-tree ``analyze_paths()`` wall-clock budget.  Pre-commit and CI
#: lean on the analyzer being interactive-fast; a full run must stay well
#: inside this even as the tree grows.
STATIC_ANALYSIS_BUDGET_SECONDS = 10.0


def _check(text, package, path="fixture.py"):
    """Check an in-memory fixture; returns (findings, suppressed)."""
    return check_source(SourceFile(Path(path), text=text, package=package))


def _rules_hit(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# Package scope, parse failures, finding order
# ----------------------------------------------------------------------
class TestFramework:
    def test_package_scoping(self):
        # An ORD violation in a package the rule does not cover is ignored.
        text = "for n in {'a', 'b'}:\n    print(n)\n"
        findings, _ = _check(text, package="analysis")
        assert findings == []
        findings, _ = _check(text, package="harness")
        assert _rules_hit(findings) == {"ORD"}

    def test_syntax_error_yields_syntax_finding(self):
        findings, _ = _check("def broken(:\n", package="aqm")
        assert [finding.rule for finding in findings] == ["SYNTAX"]

    def test_package_inferred_from_path(self):
        # The directory right below the last ``repro`` component; a file
        # directly inside ``repro/``, or outside any, is in no package.
        def package(path):
            return SourceFile(Path(path), text="").package

        assert package("src/repro/sim/engine.py") == "sim"
        assert package("repro/x/repro/aqm/pi.py") == "aqm"
        assert package("src/repro/cli.py") == ""
        assert package("tools/script.py") == ""

    def test_finding_is_sorted_and_locatable(self):
        text = "s = set()\nb = [x for x in s]\na = [x for x in s]\n"
        findings, _ = _check(text, package="sim")
        assert [finding.line for finding in findings] == [2, 3]
        assert all(finding.col >= 1 for finding in findings)


# ----------------------------------------------------------------------
# ORD — deterministic iteration
# ----------------------------------------------------------------------
class TestOrdRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "names = {'a', 'b'}\nfor n in names:\n    print(n)\n",
            "names = set()\nout = [n for n in names]\n",
            "import os\nfor f in os.listdir('.'):\n    print(f)\n",
            "import glob\nfor f in glob.glob('*.py'):\n    print(f)\n",
            "from pathlib import Path\nfor f in Path('.').iterdir():\n    print(f)\n",
        ],
    )
    def test_fires(self, snippet):
        findings, _ = _check(snippet, package="harness")
        assert _rules_hit(findings) == {"ORD"}, snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            "names = {'a', 'b'}\nfor n in sorted(names):\n    print(n)\n",
            "import os\nfor f in sorted(os.listdir('.')):\n    print(f)\n",
            # Dicts iterate in insertion order — deliberately not flagged.
            "d = {'a': 1}\nfor k in d:\n    print(k)\n",
            "items = [1, 2]\nfor x in items:\n    print(x)\n",
        ],
    )
    def test_quiet_on_compliant(self, snippet):
        findings, _ = _check(snippet, package="harness")
        assert findings == []

    # Every shape the module docstring names, one case per branch of the
    # visitor, with where the finding points and how its message opens.
    @pytest.mark.parametrize(
        "snippet, line, col, opening",
        [
            pytest.param(
                "s = {1, 2}\ns.pop()\n", 2, 1, "set.pop() removes",
                id="set-pop",
            ),
            pytest.param(
                "names: set[str] = load()\nfor n in names:\n    print(n)\n",
                2, 10, "iteration over a set", id="annotated-set",
            ),
            pytest.param(
                "import typing\nids: typing.AbstractSet[int] = load()\n"
                "out = [i for i in ids]\n",
                3, 19, "iteration over a set", id="qualified-annotation",
            ),
            pytest.param(
                "class T:\n"
                "    def __init__(self):\n"
                "        self.ids = set()\n"
                "\n"
                "    def run(self):\n"
                "        for i in self.ids:\n"
                "            print(i)\n",
                6, 18, "iteration over a set", id="self-attribute",
            ),
            pytest.param(
                "out = {k: 1 for k in frozenset('ab')}\n", 1, 22,
                "iteration over a set", id="dict-comprehension",
            ),
            pytest.param(
                "out = {k for k in {1, 2}}\n", 1, 19,
                "iteration over a set", id="set-comprehension",
            ),
            pytest.param(
                "total = list(x for x in {1, 2})\n", 1, 25,
                "iteration over a set", id="generator",
            ),
            pytest.param(
                "async def f():\n    async for x in {1, 2}:\n        print(x)\n",
                2, 20, "iteration over a set", id="async-for",
            ),
            pytest.param(
                "import os\nfor e in os.scandir('.'):\n    print(e)\n",
                2, 10, "os.scandir() yields entries", id="os-scandir",
            ),
            pytest.param(
                "import glob\nfor f in glob.iglob('*.py'):\n    print(f)\n",
                2, 10, "glob.iglob() yields entries", id="glob-iglob",
            ),
            pytest.param(
                "from pathlib import Path\n"
                "for f in Path('.').rglob('*.py'):\n    print(f)\n",
                2, 10, "listing() yields entries", id="path-rglob",
            ),
            pytest.param(
                "def scan(root):\n    return [f for f in root.glob('*.py')]\n",
                2, 24, "root.glob() yields entries", id="method-glob",
            ),
        ],
    )
    def test_each_documented_shape_fires(self, snippet, line, col, opening):
        findings, _ = _check(snippet, package="harness")
        assert [(f.rule, f.line, f.col) for f in findings] == [("ORD", line, col)]
        assert findings[0].message.startswith(opening)

    @pytest.mark.parametrize(
        "snippet",
        [
            pytest.param(
                "s = {1, 2}\nn = len(s) + min(s) + max(s) + (1 in s)\n",
                id="order-insensitive-reductions",
            ),
            pytest.param("stack = [1, 2]\nstack.pop()\n", id="list-pop"),
            pytest.param(
                "from pathlib import Path\n"
                "for f in sorted(Path('.').rglob('*.py')):\n    print(f)\n",
                id="sorted-rglob",
            ),
        ],
    )
    def test_quiet_on_documented_exemptions(self, snippet):
        findings, _ = _check(snippet, package="harness")
        assert findings == []

    def test_fires_on_the_audit_plant(self):
        # The audit's ORD plant (docs/STATIC_ANALYSIS.md): the flow-class
        # labels iterated in hash order, which PYTHONHASHSEED decides.
        text = (
            "class FlowTable:\n"
            "    def labels(self):\n"
            "        return [label for label in "
            "{r.label for r in self._records.values()}]\n"
        )
        findings, _ = _check(text, package="metrics")
        assert _rules_hit(findings) == {"ORD"}


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_allow_suppresses(self):
        text = (
            "s = set()\n"
            "out = [x for x in s]  # repro: allow[ORD] fixture justification\n"
        )
        findings, suppressed = _check(text, package="sim")
        assert findings == []
        assert [finding.rule for finding in suppressed] == ["ORD"]

    def test_standalone_allow_covers_next_code_line(self):
        text = (
            "s = set()\n"
            "# repro: allow[ORD] fixture justification\n"
            "out = [x for x in s]\n"
        )
        findings, suppressed = _check(text, package="sim")
        assert findings == []
        assert len(suppressed) == 1

    def test_allow_is_rule_specific(self):
        text = (
            "s = set()\n"
            "out = [x for x in s]  # repro: allow[PROB] wrong rule\n"
        )
        findings, suppressed = _check(text, package="sim")
        assert [finding.rule for finding in findings] == ["ORD"]
        assert suppressed == []

    def test_multi_rule_allow(self):
        allowed = parse_allow_comments(
            ["x = 1  # repro: allow[ORD, PROB] two at once"]
        )
        assert allowed[1] == frozenset({"ORD", "PROB"})

    def test_standalone_allow_does_not_leak_past_one_statement(self):
        text = (
            "s = set()\n"
            "# repro: allow[ORD] only the next line\n"
            "a = [x for x in s]\n"
            "b = [x for x in s]\n"
        )
        findings, suppressed = _check(text, package="sim")
        assert [finding.line for finding in findings] == [4]
        assert len(suppressed) == 1

    def test_allow_cannot_silence_a_syntax_finding(self):
        # A file that does not parse can hide any violation.
        findings, suppressed = _check(
            "def broken(:  # repro: allow[SYNTAX, ORD] no\n", package="sim"
        )
        assert [finding.rule for finding in findings] == ["SYNTAX"]
        assert suppressed == []


# ----------------------------------------------------------------------
# Runner: file walking, exit codes, the tree itself
# ----------------------------------------------------------------------
class TestRunner:
    def _write_fixture(self, tmp_path, name="repro/sim/bad.py"):
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("for n in {'a', 'b'}:\n    print(n)\n")
        return target

    def test_run_check_exit_codes(self, tmp_path):
        bad = self._write_fixture(tmp_path)
        out = StringIO()
        assert run_check([str(bad)], out=out) == 1
        clean = tmp_path / "repro" / "sim" / "clean.py"
        clean.write_text("for n in sorted({'a', 'b'}):\n    print(n)\n")
        out = StringIO()
        assert run_check([str(clean)], out=out) == 0
        out = StringIO()
        assert run_check([str(tmp_path / "missing.py")], out=out) == 2

    def test_pycache_skipped_and_order_stable(self, tmp_path):
        self._write_fixture(tmp_path, "repro/sim/bad.py")
        cached = tmp_path / "repro" / "__pycache__" / "junk.py"
        cached.parent.mkdir(parents=True)
        cached.write_text("for n in {'a', 'b'}:\n    print(n)\n")
        report = analyze_paths([tmp_path])
        assert report.files_checked == 1

    def test_path_given_twice_is_checked_once(self, tmp_path):
        bad = self._write_fixture(tmp_path)
        report = analyze_paths([bad, tmp_path, bad])
        assert report.files_checked == 1
        assert len(report.findings) == 1

    def test_report_lines_and_summary(self, tmp_path):
        bad = self._write_fixture(tmp_path)
        clean = tmp_path / "repro" / "sim" / "clean.py"
        clean.write_text(
            "for n in {'a'}:  # repro: allow[ORD] fixture\n    print(n)\n"
        )
        out = StringIO()
        assert run_check([str(bad), str(clean)], out=out) == 1
        finding = analyze_paths([bad]).findings[0]
        assert out.getvalue() == (
            f"{finding.path}:1:10: ORD: {finding.message}\n"
            "1 finding in 2 files (1 suppressed)\n"
        )
        out = StringIO()
        assert run_check([str(clean)], out=out) == 0
        assert out.getvalue() == "OK: 0 findings in 1 files (1 suppressed)\n"

    def test_repository_tree_is_clean(self):
        """The acceptance gate: zero unsuppressed findings at HEAD, found
        inside the analyzer's time budget."""
        start = time.perf_counter()
        report = analyze_paths()
        seconds = time.perf_counter() - start
        assert report.findings == [], "\n" + report.format_human()
        assert seconds <= STATIC_ANALYSIS_BUDGET_SECONDS, (
            f"full-tree analysis took {seconds:.2f} s "
            f"(budget {STATIC_ANALYSIS_BUDGET_SECONDS} s)"
        )
        # The deliberate, justified suppression (cache entry count).
        assert len(report.suppressed) == 1
        assert report.files_checked > 50

    def test_checker_parses_every_repo_file(self):
        report = analyze_paths()
        assert not any(f.rule == "SYNTAX" for f in report.findings)


class TestCli:
    def test_repro_check_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "OK: 0 findings" in out

    def test_repro_check_flags_violation(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("for n in {'a', 'b'}:\n    print(n)\n")
        assert main(["check", str(tmp_path)]) == 1
        assert "ORD" in capsys.readouterr().out

    # Input that checks nothing is a usage error (exit 2, one line), not
    # "OK: 0 findings in 0 files".
    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nonexistent"
        assert main(["check", str(missing)]) == 2
        assert capsys.readouterr().out == (
            f"repro check: no such file or directory: {missing}\n"
        )

    def test_non_python_path_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        readme = tmp_path / "README.md"
        readme.write_text("# not Python\n")
        assert main(["check", str(readme)]) == 2
        assert capsys.readouterr().out == (
            f"repro check: not a Python file: {readme}\n"
        )

    def test_directory_without_python_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["check", str(tmp_path)]) == 2
        assert capsys.readouterr().out == (
            f"repro check: no Python files under {tmp_path}\n"
        )


def test_ast_fixture_roundtrip():
    """Sanity: fixtures in this file are valid Python (guards typos)."""
    ast.parse("for n in sorted({'a', 'b'}):\n    print(n)\n")
