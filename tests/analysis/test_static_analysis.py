"""The domain static-analysis framework: the rule fires on fixtures that
violate it (one shaped like its audit plant) and stays quiet on the
compliant twins, suppressions behave as documented, the JSON schema is
locked, input that checks nothing is a usage error, and — the acceptance
gate — the repository's own tree is clean.
"""

import ast
import json
import time
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis.static import (
    JSON_SCHEMA_VERSION,
    RULES,
    SourceFile,
    analyze_paths,
    check_source,
    run_check,
)
from repro.analysis.static.core import parse_allow_comments

#: Full-tree ``analyze_paths()`` wall-clock budget.  Pre-commit and CI
#: lean on the analyzer being interactive-fast; a full run must stay well
#: inside this even as the tree grows.
STATIC_ANALYSIS_BUDGET_SECONDS = 10.0


def _check(text, package, rules=None, path="fixture.py"):
    """Run selected rules over an in-memory fixture; returns findings."""
    source = SourceFile(Path(path), text=text, package=package)
    selected = [RULES[name] for name in rules] if rules else None
    findings, suppressed = check_source(source, selected)
    return findings, suppressed


def _rules_hit(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# Registry / framework basics
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_builtin_rules_registered(self):
        assert set(RULES) == {"ORD"}

    def test_rules_have_descriptions_and_severity(self):
        for rule in RULES.values():
            assert rule.description
            assert rule.severity.value in ("error", "warning")

    def test_package_scoping(self):
        # An ORD violation in a package the rule does not cover is ignored.
        text = "for n in {'a', 'b'}:\n    print(n)\n"
        findings, _ = _check(text, package="analysis", rules=["ORD"])
        assert findings == []
        findings, _ = _check(text, package="harness", rules=["ORD"])
        assert _rules_hit(findings) == {"ORD"}

    def test_syntax_error_yields_syntax_finding(self):
        findings, _ = _check("def broken(:\n", package="aqm")
        assert [finding.rule for finding in findings] == ["SYNTAX"]

    def test_finding_is_sorted_and_locatable(self):
        text = "s = set()\nb = [x for x in s]\na = [x for x in s]\n"
        findings, _ = _check(text, package="sim", rules=["ORD"])
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
        findings, _ = _check(snippet, package="harness", rules=["ORD"])
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
        findings, _ = _check(snippet, package="harness", rules=["ORD"])
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
        findings, _ = _check(text, package="metrics", rules=["ORD"])
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
        findings, suppressed = _check(text, package="sim", rules=["ORD"])
        assert findings == []
        assert [finding.rule for finding in suppressed] == ["ORD"]

    def test_standalone_allow_covers_next_code_line(self):
        text = (
            "s = set()\n"
            "# repro: allow[ORD] fixture justification\n"
            "out = [x for x in s]\n"
        )
        findings, suppressed = _check(text, package="sim", rules=["ORD"])
        assert findings == []
        assert len(suppressed) == 1

    def test_allow_is_rule_specific(self):
        text = (
            "s = set()\n"
            "out = [x for x in s]  # repro: allow[PROB] wrong rule\n"
        )
        findings, suppressed = _check(text, package="sim", rules=["ORD"])
        assert [finding.rule for finding in findings] == ["ORD"]
        assert suppressed == []

    def test_multi_rule_allow(self):
        allowed = parse_allow_comments(
            ["x = 1  # repro: allow[ORD, PROB] two at once"]
        )
        names, why = allowed[1]
        assert names == frozenset({"ORD", "PROB"})
        assert why == "two at once"

    def test_standalone_allow_does_not_leak_past_one_statement(self):
        text = (
            "s = set()\n"
            "# repro: allow[ORD] only the next line\n"
            "a = [x for x in s]\n"
            "b = [x for x in s]\n"
        )
        findings, suppressed = _check(text, package="sim", rules=["ORD"])
        assert [finding.line for finding in findings] == [4]
        assert len(suppressed) == 1


# ----------------------------------------------------------------------
# Runner: JSON schema, file walking, exit codes, the tree itself
# ----------------------------------------------------------------------
class TestRunner:
    def _write_fixture(self, tmp_path, name="repro/sim/bad.py"):
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("for n in {'a', 'b'}:\n    print(n)\n")
        return target

    def test_json_schema_locked(self, tmp_path):
        self._write_fixture(tmp_path)
        report = analyze_paths([tmp_path])
        payload = report.to_json()
        assert set(payload) == {
            "schema",
            "files_checked",
            "rules",
            "counts",
            "findings",
            "suppressed",
        }
        assert payload["schema"] == JSON_SCHEMA_VERSION == 3
        assert payload["files_checked"] == 1
        assert set(payload["counts"]) == set(payload["rules"]) == set(RULES)
        (finding,) = [f for f in payload["findings"] if f["rule"] == "ORD"]
        assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}
        assert payload["counts"]["ORD"] == 1

    def test_run_check_exit_codes(self, tmp_path):
        bad = self._write_fixture(tmp_path)
        out = StringIO()
        assert run_check([str(bad)], out=out) == 1
        clean = tmp_path / "repro" / "sim" / "clean.py"
        clean.write_text("for n in sorted({'a', 'b'}):\n    print(n)\n")
        out = StringIO()
        assert run_check([str(clean)], rule_names=["ORD"], out=out) == 0
        out = StringIO()
        assert run_check([str(bad)], rule_names=["NOPE"], out=out) == 2
        assert "unknown rule" in out.getvalue()
        out = StringIO()
        assert run_check(list_rules=True, out=out) == 0
        assert "ORD" in out.getvalue()

    def test_json_output_parses(self, tmp_path):
        bad = self._write_fixture(tmp_path)
        out = StringIO()
        run_check([str(bad)], output_format="json", out=out)
        payload = json.loads(out.getvalue())
        assert payload["schema"] == 3

    def test_pycache_skipped_and_order_stable(self, tmp_path):
        self._write_fixture(tmp_path, "repro/sim/bad.py")
        cached = tmp_path / "repro" / "__pycache__" / "junk.py"
        cached.parent.mkdir(parents=True)
        cached.write_text("for n in {'a', 'b'}:\n    print(n)\n")
        report = analyze_paths([tmp_path])
        assert report.files_checked == 1

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

    def test_repro_check_rules_and_json(self, capsys):
        from repro.cli import main

        assert main(["check", "--rules", "ord", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["rules"]) == {"ORD"}

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

    def test_empty_rule_selection_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["check", "--rules", ","]) == 2
        out = capsys.readouterr().out
        assert out.startswith("repro check: empty rule selection")
        assert len(out.splitlines()) == 1

    def test_baseline_ceiling_for_unknown_rule_is_a_usage_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"max_findings": {"ORD": 0, "NOSUCH": 3}}))
        assert main(["check", "--baseline", str(baseline)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(
            f"repro check: baseline {baseline} has a ceiling for unknown "
            "rule 'NOSUCH'"
        )
        assert len(out.splitlines()) == 1


def test_ast_fixture_roundtrip():
    """Sanity: fixtures in this file are valid Python (guards typos)."""
    ast.parse("for n in sorted({'a', 'b'}):\n    print(n)\n")
