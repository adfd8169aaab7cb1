"""Parallel sweep execution: serial/parallel equivalence, failure parity,
and the picklability guard.

The contract under test is the strongest one the module makes: for a
fixed seed, results are **bit-exact identical** (``digest()`` equality)
whether cells run serially, in a process pool, or via
:func:`execute_tasks` directly — and failures come back in the same
slots either way.
"""

from dataclasses import replace

import pytest

from repro.aqm.pi import PiAqm
from repro.errors import ConfigError, ParallelExecutionError
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import coupled_factory, pi2_factory
from repro.harness.parallel import SweepTask, execute_tasks, resolve_jobs
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
        """A cache used to route a jobs=None sweep into a process pool."""
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


class TestSharedCacheDeferral:
    """Shared-cache-aware submission: cells another process holds in
    flight go to the back of the queue — order only, never results."""

    def _held(self, cache, key):
        import fcntl
        import os

        lock_path = cache._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX)
        return fd

    def test_in_flight_cells_submit_last(self, tmp_path):
        import os

        from repro.harness.cache import SharedResultCache
        from repro.harness.parallel import RunReport, _defer_in_flight

        cache = SharedResultCache(tmp_path)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        fd = self._held(cache, keys[0])
        events = []
        report = RunReport()
        try:
            order = _defer_in_flight(
                [0, 1, 2], keys, cache, report,
                lambda cat, name, t, data: events.append((name, data)),
            )
        finally:
            os.close(fd)
        assert order == [1, 2, 0]
        assert events == [("cache_deferred", {"tasks": 1})]
        assert report.deferred == 1

    def test_nothing_in_flight_keeps_order_and_emits_nothing(self, tmp_path):
        from repro.harness.cache import SharedResultCache
        from repro.harness.parallel import RunReport, _defer_in_flight

        cache = SharedResultCache(tmp_path)
        keys = ["dd" + "0" * 62, None]
        events = []
        order = _defer_in_flight(
            [0, 1], keys, cache, RunReport(),
            lambda cat, name, t, data: events.append(name),
        )
        assert order == [0, 1]
        assert events == []
