"""Parallel sweep execution: serial/parallel equivalence, failure parity,
and the picklability guard.

The contract under test is the strongest one the module makes: for a
fixed seed, results are **bit-exact identical** (``digest()`` equality)
whether cells run inline or in supervised worker processes — and
failures come back in the same slots either way.  The supervisor's own
reporting and recovery paths are in ``test_supervisor.py`` and
``test_chaos.py``.
"""

from dataclasses import replace

import pytest

from repro.aqm.pi import PiAqm
from repro.errors import ConfigError, ParallelExecutionError
from repro.harness.cache import ResultCache, experiment_cache_key
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import coupled_factory, pi2_factory
from repro.harness.parallel import RunReport, SweepTask, execute_tasks, resolve_jobs
from repro.harness.sweep import _mix_tasks, run_coexistence_grid


class ExplodingFactory:
    """Picklable AQM factory whose instances always diverge.

    Module-level class (pickles by reference under the fork start
    method); the sabotage happens worker-side at instantiation time.
    """

    def __call__(self, rng):
        aqm = PiAqm(rng=rng)
        original = aqm.controller.update

        def poisoned(delay, gain_scale=1.0):
            return original(float("nan"))

        aqm.controller.update = poisoned
        return aqm


def _quick_experiment(**overrides):
    defaults = dict(
        capacity_bps=10e6,
        duration=3.0,
        warmup=1.0,
        aqm_factory=pi2_factory(),
        flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
    )
    defaults.update(overrides)
    return Experiment(**defaults)


class TestResolveJobs:
    def test_auto_is_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == 1  # None means serial

    def test_none_is_serial_even_with_a_cache(self, tmp_path):
        """A cache used to route a jobs=None sweep into worker processes."""
        from repro.harness.cache import ResultCache
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        run_coexistence_grid(
            coupled_factory(), links_mbps=[10], rtts_ms=[10, 20],
            duration=2.0, warmup=0.5, cache=ResultCache(tmp_path),
            tracer=tracer,
        )
        starts = tracer.by_event("task_start")
        assert [event[3]["backend"] for event in starts] == ["serial", "serial"]

    def test_explicit_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-2)


class TestGridEquivalence:
    def test_parallel_grid_bit_matches_serial(self):
        kwargs = dict(
            links_mbps=[10], rtts_ms=[10, 20], duration=3.0, warmup=1.0, seed=3
        )
        serial = run_coexistence_grid(coupled_factory(), **kwargs)
        parallel = run_coexistence_grid(coupled_factory(), jobs=2, **kwargs)
        assert [(c.link_mbps, c.rtt_ms) for c in serial] == [
            (c.link_mbps, c.rtt_ms) for c in parallel
        ]
        assert [c.result.digest() for c in serial] == [
            c.result.digest() for c in parallel
        ]

    def test_jobs_one_stays_in_process_and_matches(self):
        kwargs = dict(
            links_mbps=[10], rtts_ms=[10], duration=3.0, warmup=1.0, seed=3
        )
        serial = run_coexistence_grid(coupled_factory(), **kwargs)
        one_job = run_coexistence_grid(coupled_factory(), jobs=1, **kwargs)
        assert [c.result.digest() for c in serial] == [
            c.result.digest() for c in one_job
        ]

    def test_mix_sweep_parallel_matches_serial(self):
        """The Figure 19–20 flow-mix cells, as the figures run them."""
        tasks = [task for _a, _b, task in _mix_tasks(
            coupled_factory(), "dctcp", "cubic", [(1, 1), (2, 1)], 10, 10.0,
            3.0, 1.0, 3,
        )]
        serial = execute_tasks(tasks)
        parallel = execute_tasks(tasks, jobs=2)
        assert [r.digest() for r, _f in serial] == [r.digest() for r, _f in parallel]


class TestRepeatEquivalence:
    def test_parallel_repeat_matches_serial_samples(self):
        """Seed replicas of one experiment (how ``abl_decision_modes``
        repeats its cells) give the same per-seed samples on any backend."""
        tasks = [SweepTask(f"seed {seed}", replace(_quick_experiment(), seed=seed))
                 for seed in (1, 2, 3)]
        serial = execute_tasks(tasks)
        parallel = execute_tasks(tasks, jobs=2)
        for metric in (lambda r: r.sojourn_summary()["mean"],
                       lambda r: r.total_goodput_bps()):
            assert [metric(r) for r, _f in serial] == [metric(r) for r, _f in parallel]


class TestFailureParity:
    def test_capture_failures_land_in_same_slots(self):
        """Mixed good/bad tasks: an un-runnable cell (event budget of 500
        exhausts deterministically) must produce the same failure record
        in the same slot at jobs=1 and jobs=2, with identical digests for
        the surviving cells."""
        good = _quick_experiment()
        bad = _quick_experiment(max_events=500)
        tasks = [
            SweepTask("ok-a", good),
            SweepTask("doomed", bad),
            SweepTask("ok-b", replace(good, seed=2)),
        ]
        serial = execute_tasks(tasks, jobs=1, on_error="capture", max_retries=0)
        parallel = execute_tasks(tasks, jobs=2, on_error="capture", max_retries=0)
        for (r_s, f_s), (r_p, f_p) in zip(serial, parallel):
            assert (r_s is None) == (r_p is None)
            if r_s is not None:
                assert f_s is None and f_p is None
                assert r_s.digest() == r_p.digest()
            else:
                assert f_s.label == f_p.label == "doomed"
                assert f_s.error_type == f_p.error_type == "WatchdogExceeded"
                assert f_s.seeds_tried == f_p.seeds_tried

    def test_raise_mode_raises_first_failure_in_task_order(self):
        tasks = [
            SweepTask("ok", _quick_experiment()),
            SweepTask("first-bad", _quick_experiment(max_events=500)),
            SweepTask("second-bad", _quick_experiment(max_events=400, seed=2)),
        ]
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_tasks(tasks, jobs=2, on_error="raise", max_retries=0)
        assert excinfo.value.label == "first-bad"
        assert excinfo.value.error_type == "WatchdogExceeded"

    def test_grid_capture_parity_with_exploding_factory(self):
        kwargs = dict(
            links_mbps=[10], rtts_ms=[10, 20], duration=3.0, warmup=1.0,
            on_error="capture", max_retries=0,
        )
        serial = run_coexistence_grid(ExplodingFactory(), **kwargs)
        parallel = run_coexistence_grid(ExplodingFactory(), jobs=2, **kwargs)
        assert len(serial) == len(parallel) == 0
        assert [f.label for f in serial.failures] == [
            f.label for f in parallel.failures
        ]
        assert {f.error_type for f in parallel.failures} == {
            "ControllerDivergence"
        }
        assert not parallel.complete

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            execute_tasks([SweepTask("x", _quick_experiment())], on_error="ignore")


class TestPicklability:
    def test_lambda_factory_rejected_with_guidance(self):
        exp = _quick_experiment(aqm_factory=lambda rng: PiAqm(rng=rng))
        with pytest.raises(ConfigError) as excinfo:
            execute_tasks(
                [SweepTask("a", exp), SweepTask("b", replace(exp, seed=2))],
                jobs=2,
            )
        message = str(excinfo.value)
        assert "pickled" in message
        assert "jobs=1" in message

    def test_lambda_factory_fine_in_process(self):
        exp = _quick_experiment(aqm_factory=lambda rng: PiAqm(rng=rng))
        [(result, failure)] = execute_tasks([SweepTask("a", exp)], jobs=1)
        assert failure is None
        assert result.total_goodput_bps() > 0


class TestFrozenResults:
    def test_parallel_results_keep_metric_api(self):
        outcome = run_coexistence_grid(
            coupled_factory(), links_mbps=[10], rtts_ms=[10],
            duration=3.0, warmup=1.0, jobs=2,
        )
        [cell] = outcome
        summary = cell.result.sojourn_summary()
        assert summary["mean"] > 0
        assert cell.result.total_goodput_bps() > 1e6
        assert 0.0 <= cell.result.mean_utilization() <= 1.5
        assert cell.result.events_processed > 0


JOBS = pytest.mark.parametrize("jobs", [None, 2], ids=["inline", "supervised"])


def _seeded_tasks(n=2):
    return [SweepTask(f"s{s}", _quick_experiment(seed=s)) for s in range(1, n + 1)]


class TestParentSideStore:
    """The pipeline's one store path: whichever backend simulated a cell,
    its fresh result is stored by the process that called
    ``execute_tasks``, through the caller's cache instance."""

    @JOBS
    def test_every_fresh_keyed_result_is_stored(self, tmp_path, jobs):
        tasks, cache, report = _seeded_tasks(), ResultCache(tmp_path), RunReport()
        out = execute_tasks(tasks, jobs=jobs, cache=cache, report=report)
        assert report.executed == cache.stats.misses == cache.stats.stores == 2
        assert len(cache) == 2
        for task, (result, _) in zip(tasks, out):
            stored = ResultCache(tmp_path).get(experiment_cache_key(task.experiment))
            assert stored.digest() == result.digest()

    def test_entries_match_across_backends(self, tmp_path):
        """A result frozen in a worker and stored by the parent lands
        under the same key, with the same digest, as one frozen and
        stored inline.  The pickled bytes may differ: unpickling does not
        re-intern strings, so a result that crossed the worker's pipe
        spells out some strings that an inline result writes as memo
        references."""
        execute_tasks(_seeded_tasks(), cache=ResultCache(tmp_path / "inline"))
        execute_tasks(_seeded_tasks(), jobs=2,
                      cache=ResultCache(tmp_path / "supervised"))

        def entries(root):
            return {path.stem: ResultCache(root).get(path.stem).digest()
                    for path in sorted(root.glob("*/*.pkl"))}

        inline = entries(tmp_path / "inline")
        assert len(inline) == 2 and entries(tmp_path / "supervised") == inline

    @pytest.mark.parametrize("cold_jobs, warm_jobs", [(None, 2), (2, None)],
                             ids=["inline-then-supervised", "supervised-then-inline"])
    def test_one_backends_entries_serve_the_other(self, tmp_path, cold_jobs, warm_jobs):
        cold = execute_tasks(_seeded_tasks(), jobs=cold_jobs, cache=ResultCache(tmp_path))
        cache, report = ResultCache(tmp_path), RunReport()
        warm = execute_tasks(_seeded_tasks(), jobs=warm_jobs, cache=cache, report=report)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (2, 0, 0)
        assert (report.cache_hits, report.executed) == (2, 0)
        assert [r.digest() for r, _ in warm] == [r.digest() for r, _ in cold]

    @JOBS
    def test_failed_cell_is_not_stored(self, tmp_path, jobs):
        ok, doomed = _quick_experiment(), _quick_experiment(max_events=500)
        cache = ResultCache(tmp_path)
        out = execute_tasks([SweepTask("ok", ok), SweepTask("doomed", doomed)],
                            jobs=jobs, cache=cache, on_error="capture",
                            max_retries=0)
        assert out[1][0] is None and out[1][1].label == "doomed"
        assert cache.stats.stores == 1
        assert ResultCache(tmp_path).get(experiment_cache_key(doomed)) is None
        assert ResultCache(tmp_path).get(experiment_cache_key(ok)) is not None

    @JOBS
    def test_replayed_cells_bypass_the_cache(self, tmp_path, jobs):
        """Resume serves journaled cells without probing or filling the
        cache; only the cell that runs is stored."""
        tasks, journal = _seeded_tasks(3), tmp_path / "run.journal"
        execute_tasks(tasks[:2], jobs=jobs, journal=journal)
        cache, report = ResultCache(tmp_path / "cache"), RunReport()
        resumed = execute_tasks(tasks, jobs=jobs, cache=cache, journal=journal,
                                resume=True, report=report)
        assert (report.replayed, report.executed) == (2, 1)
        assert (cache.stats.misses, cache.stats.stores, len(cache)) == (1, 1, 1)
        assert [r.digest() for r, _ in resumed] == [
            r.digest() for r, _ in execute_tasks(tasks)
        ]


class TestRunReport:
    def test_summary_names_the_run_counters_and_flags(self):
        report = RunReport(executed=3, replayed=2, cache_hits=1,
                           journal_appends=3, torn_journal=True, degraded=True)
        assert report.summary() == (
            "executed=3 replayed=2 cache_hits=1 journal_appends=3 "
            "torn_journal=yes DEGRADED-TO-SERIAL"
        )
        assert RunReport().summary() == (
            "executed=0 replayed=0 cache_hits=0 journal_appends=0"
        )
