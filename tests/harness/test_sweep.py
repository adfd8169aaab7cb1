"""Unit tests for grid sweeps and table formatting."""


from repro.harness.factories import coupled_factory
from repro.harness.figures import FIGURES
from repro.harness.parallel import execute_tasks
from repro.harness.sweep import (
    PAPER_LINK_MBPS,
    PAPER_RTTS_MS,
    _mix_tasks,
    format_table,
    run_coexistence_grid,
)


class TestPaperGrids:
    def test_grid_dimensions(self):
        assert PAPER_LINK_MBPS == (4, 12, 40, 120, 200)
        assert PAPER_RTTS_MS == (5, 10, 20, 50, 100)


class TestRunGrid:
    def test_tiny_grid_runs(self):
        cells = run_coexistence_grid(
            coupled_factory(),
            links_mbps=[10],
            rtts_ms=[10, 20],
            duration=6.0,
            warmup=3.0,
        )
        assert len(cells) == 2
        for cell in cells:
            assert cell.result.total_goodput_bps() > 1e6

    def test_duration_override(self):
        """fig15_18 budgets each cell's run length by link and RTT."""
        tasks, _reduce = FIGURES["fig15_18"](1.0)
        durations = {
            (t.experiment.capacity_bps, t.experiment.flows[0].rtt): t.experiment.duration
            for t in tasks
        }
        assert durations[(4e6, 0.1)] == 44.0
        assert durations[(200e6, 0.1)] == 14.0
        assert durations[(200e6, 0.005)] == 10.0

    def test_mix_sweep_runs(self):
        (n_a, n_b, task), = _mix_tasks(
            coupled_factory(), "dctcp", "cubic", [(1, 2)], 10, 10.0, 6.0, 3.0, 1,
        )
        (result, failure), = execute_tasks([task])
        assert (n_a, n_b) == (1, 2) and failure is None
        assert len(result.goodputs("dctcp")) == 1
        assert len(result.goodputs("cubic")) == 2


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(
            ["a", "bb"], [[1, 2.5], [10, 0.001]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        out = format_table(["x"], [[123.456], [0.1234], [1.5]])
        assert "123" in out
        assert "0.1234" in out
        assert "1.50" in out
