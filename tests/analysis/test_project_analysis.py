"""The findings-baseline ratchet and the head-of-tree acceptance gate.

Covers the per-rule ceilings in ``tools/findings_baseline.json``: new
findings fail, fixed findings lower the ceiling, a missing baseline
fails only when required, and the repository's own baseline is all
zero and names only registered rules.
"""

from io import StringIO
from pathlib import Path

from repro.analysis.static import (
    RULES,
    Report,
    apply_baseline,
    load_baseline,
    run_check,
)
from repro.analysis.static.core import Finding


# ----------------------------------------------------------------------
# Findings baseline (the ratchet)
# ----------------------------------------------------------------------
class TestBaseline:
    def _report(self, count=0):
        report = Report(rules={"ORD": "o"})
        for i in range(count):
            report.findings.append(Finding(
                rule="ORD", severity="error", path="x.py", line=i + 1,
                col=1, message="m",
            ))
        return report

    def test_update_writes_counts(self, tmp_path):
        path = tmp_path / "baseline.json"
        rc = apply_baseline(
            self._report(count=2), path, update=True, out=StringIO()
        )
        assert rc == 0
        assert load_baseline(path) == {"ORD": 2}

    def test_new_findings_fail(self, tmp_path):
        path = tmp_path / "baseline.json"
        apply_baseline(self._report(count=1), path, update=True, out=StringIO())
        out = StringIO()
        rc = apply_baseline(self._report(count=2), path, out=out)
        assert rc == 1
        assert "exceed the baseline ceiling" in out.getvalue()

    def test_fixed_findings_auto_lower_the_ceiling(self, tmp_path):
        path = tmp_path / "baseline.json"
        apply_baseline(self._report(count=3), path, update=True, out=StringIO())
        out = StringIO()
        rc = apply_baseline(self._report(count=1), path, out=out)
        assert rc == 0
        assert "ratcheted down" in out.getvalue()
        assert load_baseline(path)["ORD"] == 1
        # ... and the lowered ceiling now gates at the new level.
        assert apply_baseline(self._report(count=2), path, out=StringIO()) == 1

    def test_missing_baseline_requires_flag(self, tmp_path):
        path = tmp_path / "missing.json"
        out = StringIO()
        assert apply_baseline(self._report(), path, require=True, out=out) == 1
        assert "baseline required" in out.getvalue()
        # Without require: strict mode.
        assert apply_baseline(self._report(count=0), path, out=StringIO()) == 0
        assert apply_baseline(self._report(count=1), path, out=StringIO()) == 1

    def test_repo_baseline_is_all_zero(self):
        ceilings = load_baseline(Path("tools/findings_baseline.json"))
        assert ceilings is not None
        assert set(ceilings) == set(RULES)
        assert all(count == 0 for count in ceilings.values())


# ----------------------------------------------------------------------
# Acceptance gate: the tree is clean under the baseline
# ----------------------------------------------------------------------
class TestAcceptanceGate:
    def test_head_is_clean_under_the_baseline(self):
        out = StringIO()
        rc = run_check(
            baseline="tools/findings_baseline.json",
            require_baseline=True,
            out=out,
        )
        assert rc == 0, out.getvalue()
