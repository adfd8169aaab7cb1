"""Smoke tests: every example script must run and print its key lines.

Each example is executed in-process via runpy (so coverage and debugging
work) with stdout captured.  These are the repository's 'docs that cannot
rot': if an API change breaks an example, this suite fails.
"""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "tail-drop only (bufferbloat)" in out
        assert "PI2 (target 20 ms)" in out
        assert "removed" in out

    def test_coexistence(self):
        out = run_example("coexistence.py")
        assert "=== PIE ===" in out
        assert "=== coupled PI+PI2 ===" in out
        assert "cubic/dctcp ratio" in out

    def test_bode_analysis(self):
        out = run_example("bode_analysis.py")
        assert "pi(tune=1)" in out
        assert "X" in out  # an unstable point is rendered
        assert "pi2" in out

    def test_aqm_shootout(self):
        out = run_example("aqm_shootout.py")
        for name in ("tail-drop", "RED", "PIE", "bare-PIE", "PI2"):
            assert name in out

    def test_dualq_demo(self):
        out = run_example("dualq_demo.py")
        assert "single queue (paper §5)" in out
        assert "DualQ Coupled" in out

    def test_fluid_step_response(self):
        out = run_example("fluid_step_response.py")
        assert "light-load oscillation" in out
        assert "20 ms target" in out

    def test_fault_tolerance(self):
        out = run_example("fault_tolerance.py")
        assert "resilient sweep with one sabotaged cell" in out
        assert "cells completed: 2 of 3" in out
        assert "ControllerDivergence" in out

    def test_paper_walkthrough(self):
        out = run_example("paper_walkthrough.py")
        for step in range(1, 7):
            assert f"step {step}" in out
        assert "UNSTABLE" in out
        assert "ratio" in out
