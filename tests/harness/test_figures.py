"""Tests for the programmatic figure-data generators."""

import math

import pytest

from repro.errors import ConfigError, FigureGenerationError
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import pi2_factory
from repro.harness.figures import FIGURES, FigureData, generate_figure
from repro.harness.parallel import SweepTask


class TestRegistry:
    def test_expected_figures_present(self):
        for name in ("fig04", "fig05", "fig06", "fig07", "fig11", "fig12",
                     "fig13", "fig14", "fig15", "fig15_18", "fig19", "fig19_20",
                     "appA", "abl_bare_pie", "abl_dctcp_marking",
                     "abl_decision_modes", "abl_k_factor", "abl_rtt_sensitivity",
                     "abl_sack", "abl_square_vs_tune", "related_work", "lineage",
                     "dualq", "short_fct"):
            assert name in FIGURES

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            generate_figure("fig99")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_figure("fig05", scale=0)


class TestAnalyticFigures:
    """The cheap, deterministic generators run in milliseconds."""

    def test_fig04_rows(self):
        data = generate_figure("fig04")
        assert data.headers[0] == "p"
        assert len(data.rows) == 8
        # The tune=1 column crosses zero somewhere (the diagonal).
        fixed = [row[2] for row in data.rows]
        assert min(fixed) < 0 < max(fixed)

    def test_fig05_rows(self):
        data = generate_figure("fig05")
        assert all(len(row) == 3 for row in data.rows)
        assert data.rows[-1][0] == 1.0

    def test_fig07_rows(self):
        data = generate_figure("fig07")
        pi2 = [row[2] for row in data.rows]
        assert all(g > 0 for g in pi2)


class TestRenderingAndExport:
    def test_table_includes_note(self):
        data = generate_figure("fig05")
        assert "sqrt(2p)" in data.table()
        assert data.note in data.table()

    def test_csv_round_trip(self, tmp_path):
        import csv

        data = generate_figure("fig04")
        path = tmp_path / "fig04.csv"
        data.to_csv(path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == data.headers
        assert len(rows) == len(data.rows) + 1

    def test_csv_is_utf8_regardless_of_locale(self, tmp_path):
        """Headers carry non-ASCII (µs, ≈); the writer must pin UTF-8
        instead of inheriting a locale encoding that can't express them."""
        data = FigureData(
            "Figure µ", ["delay [µs]", "ratio ≈"], [(1.0, "≤2")],
        )
        path = tmp_path / "fig.csv"
        data.to_csv(path)
        text = path.read_bytes().decode("utf-8")
        assert "delay [µs]" in text
        assert "≤2" in text


def _doomed_experiment():
    """Deterministically exhausts its event budget mid-simulation."""
    return Experiment(
        capacity_bps=10e6, duration=2.0, warmup=0.5, seed=9,
        max_events=500, aqm_factory=pi2_factory(),
        flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
    )


@pytest.fixture
def doomed_figure(monkeypatch):
    """Register a one-cell figure whose only cell fails (name: ``doomed``)."""
    monkeypatch.setitem(
        FIGURES, "doomed",
        lambda scale: ([SweepTask("pie", _doomed_experiment())], None),
    )
    return "doomed"


class TestFailurePropagation:
    """A broken cell must raise with figure/cell/sim-time context — the
    old ``_run_one`` dropped the failure and returned ``None`` — and the
    error type must not depend on how the cell ran."""

    def _check_error(self, err, figure):
        assert isinstance(err, FigureGenerationError)
        assert err.figure == figure
        assert err.label == "pie"
        assert err.error_type == "WatchdogExceeded"
        assert err.sim_time is not None and err.sim_time > 0
        message = str(err)
        assert f"{figure}" in message and "'pie'" in message
        assert "t=" in message  # virtual time of death

    def test_failing_cell_raises_contextual_error(self, tmp_path, doomed_figure):
        from repro.harness.journal import ResultJournal

        with pytest.raises(FigureGenerationError) as excinfo:
            generate_figure(doomed_figure, journal=tmp_path)
        self._check_error(excinfo.value, doomed_figure)
        # The failure was not journaled: a resume re-runs the cell.
        journal = ResultJournal(tmp_path / f"{doomed_figure}.journal")
        assert journal.read().records == []

    def test_failure_is_not_silently_seed_bumped(self, tmp_path, doomed_figure):
        """Figures present specific seeds; a failing cell must not be
        retried on a bumped seed the way sweeps may."""
        from repro.harness.cache import ResultCache

        cache = ResultCache(tmp_path)
        with pytest.raises(FigureGenerationError) as excinfo:
            generate_figure(doomed_figure, cache=cache)
        assert "seed" not in str(excinfo.value).lower()
        assert cache.stats.stores == 0 and len(cache) == 0

    @pytest.mark.parametrize("jobs", [None, 2], ids=["inline", "supervised"])
    def test_every_route_raises_the_same_error(self, doomed_figure, jobs):
        """With no cache or journal the in-process route used to let the
        raw WatchdogExceeded escape, and parallel fig15/fig19 cells raised
        the sweep's ParallelExecutionError."""
        with pytest.raises(FigureGenerationError) as excinfo:
            generate_figure(doomed_figure, jobs=jobs)
        self._check_error(excinfo.value, doomed_figure)


class TestStageWindows:
    """Satellite: short stages used to push the fixed 1 s warmup offset
    past the stage end, feeding np.mean an empty slice -> NaN rows."""

    def test_fig06_small_scale_rows_are_finite(self):
        data = generate_figure("fig06", scale=0.0625)  # stage = 0.5 s
        assert len(data.rows) == 10
        for row in data.rows:
            assert math.isfinite(row[2]), row
            assert math.isfinite(row[3]), row

    def test_fig06_below_minimum_stage_rejected(self):
        with pytest.raises(ConfigError, match="minimum"):
            generate_figure("fig06", scale=0.06)

    def test_fig13_below_minimum_stage_rejected(self):
        with pytest.raises(ConfigError, match="scale >="):
            generate_figure("fig13", scale=0.04)


class TestSimulatedFigure:
    def test_fig12_small_scale(self):
        data = generate_figure("fig12", scale=0.3)
        assert [row[0] for row in data.rows] == ["pie", "pi2"]
        # Transient peaks are present and finite.
        assert all(row[1] > 0 for row in data.rows)


class TestFigureJournalResume:
    """The crash-safety contract at the figure surface: journal and
    resume, bit-exact against a plain run."""

    def test_journaled_resume_is_bit_exact(self, tmp_path):
        plain = generate_figure("fig12", scale=0.12)
        first = generate_figure("fig12", scale=0.12, journal=tmp_path)
        assert first.rows == plain.rows
        assert first.report.journal_appends == 2
        assert first.report.executed == 2
        assert (tmp_path / "fig12.journal").exists()

        resumed = generate_figure(
            "fig12", scale=0.12, journal=tmp_path, resume=True
        )
        assert resumed.rows == plain.rows
        assert resumed.report.replayed == 2
        assert resumed.report.executed == 0
        assert resumed.report.journal_appends == 0

    def test_rerecorded_journal_resumes_identically(self, tmp_path):
        """Recording a figure twice leaves both runs' records in its
        journal; resume replays the latest per cell, bit-exact."""
        from repro.harness.journal import ResultJournal

        plain = generate_figure("fig12", scale=0.12)
        generate_figure("fig12", scale=0.12, journal=tmp_path)
        generate_figure("fig12", scale=0.12, journal=tmp_path)
        assert len(ResultJournal(tmp_path / "fig12.journal").read().records) == 4
        resumed = generate_figure(
            "fig12", scale=0.12, journal=tmp_path, resume=True
        )
        assert resumed.rows == plain.rows
        assert resumed.report.replayed == 2
        assert resumed.report.executed == 0

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ConfigError, match="journal"):
            generate_figure("fig12", scale=0.12, resume=True)

    def test_report_attached_even_for_analytic_figures(self):
        data = generate_figure("fig05")
        assert data.report is not None
        assert data.report.executed == 0
        assert "executed=0" in data.report.summary()


class TestBenchmarkCacheContract:
    # perf/e2e/child.py imports SharedResultCache at module top (line 37)
    # and reads cache.event_counts()["compute"] after each figures_jobs2
    # batch (line 241); the benchmark fails at import without the name.
    @pytest.mark.parametrize("jobs", [None, 2], ids=["inline", "jobs2"])
    def test_shared_cache_counts_computes_on_every_backend(self, tmp_path, jobs):
        """Every fresh result is stored through the caller's cache, so its
        counters see the work whether the cells ran inline or in
        supervised workers."""
        from repro.harness.cache import SharedResultCache

        cold = SharedResultCache(tmp_path)
        generate_figure("fig12", scale=0.1, cache=cold, jobs=jobs)
        assert cold.event_counts()["compute"] == 2
        assert cold.stats.stores == 2
        warm = SharedResultCache(tmp_path)
        data = generate_figure("fig12", scale=0.1, cache=warm, jobs=jobs)
        assert warm.stats.hits == 2
        assert warm.event_counts()["compute"] == 0
        assert data.report.cache_hits == 2


class TestCellPipelineParity:
    """One pipeline, many routes: serial, supervised and
    journaled-then-resumed runs of the same figure give byte-identical
    rows."""

    @pytest.mark.parametrize("name, scale", [("fig11", 0.1), ("fig15", 0.1)])
    def test_rows_identical_serial_supervised_and_resumed(self, tmp_path,
                                                          name, scale):
        from repro.obs import RecordingTracer

        serial = generate_figure(name, scale=scale, jobs=1)
        tracer = RecordingTracer()
        supervised = generate_figure(name, scale=scale, jobs=2, tracer=tracer)
        backends = {event[3]["backend"] for event in tracer.by_event("task_start")}
        assert backends == {"supervised"}
        journaled = generate_figure(name, scale=scale, jobs=2, journal=tmp_path)
        resumed = generate_figure(name, scale=scale, journal=tmp_path,
                                  resume=True)
        cells = serial.report.executed
        assert resumed.report.replayed == cells and resumed.report.executed == 0
        assert journaled.report.journal_appends == cells
        assert repr(supervised.rows) == repr(serial.rows)
        assert repr(journaled.rows) == repr(serial.rows)
        assert repr(resumed.rows) == repr(serial.rows)
