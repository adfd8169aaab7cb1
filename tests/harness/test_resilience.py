"""Tests for the resilient experiment runner: per-cell error capture,
seed-bumped retries, failure reports, and the new Experiment field
validation."""

import math
import random

import pytest

from repro.aqm.pi import PiAqm
from repro.errors import ConfigError, ControllerDivergence, ParallelExecutionError
from repro.harness.cache import ResultCache, experiment_cache_key
from repro.harness.experiment import Experiment, FlowGroup, run_experiment
from repro.harness.factories import pi2_factory
from repro.harness.journal import ResultJournal
from repro.harness.parallel import RunReport, SweepTask, execute_tasks
from repro.harness.resilience import (
    RETRY_SEED_STRIDE,
    RunFailure,
    format_failure_report,
    run_with_retries,
)
from repro.harness.sweep import _mix_tasks, run_coexistence_grid
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


def _quick_experiment(aqm_factory=None, **overrides):
    defaults = dict(
        capacity_bps=10e6,
        duration=3.0,
        warmup=1.0,
        aqm_factory=aqm_factory or pi2_factory(),
        flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
    )
    defaults.update(overrides)
    return Experiment(**defaults)


def _divergent_factory(fail_calls):
    """An AQM factory that sabotages its first ``fail_calls`` instances
    with a NaN-emitting controller update."""
    calls = {"n": 0}

    def make(rng: random.Random):
        calls["n"] += 1
        aqm = PiAqm(rng=rng)
        if calls["n"] <= fail_calls:
            original = aqm.controller.update

            def poisoned(delay, gain_scale=1.0):
                return original(float("nan"))

            aqm.controller.update = poisoned
        return aqm

    return make


class TestRunWithRetries:
    def test_success_returns_result(self):
        result, failure = run_with_retries(_quick_experiment(), label="ok")
        assert failure is None
        assert result is not None
        assert result.queue_stats.arrived > 0

    def test_retry_on_bumped_seed_recovers(self):
        """First attempt diverges; the seed-bumped retry gets a clean AQM
        and must succeed."""
        exp = _quick_experiment(aqm_factory=_divergent_factory(1), seed=1)
        result, failure = run_with_retries(exp, label="flaky", max_retries=1)
        assert failure is None
        assert result is not None

    def test_exhausted_retries_return_structured_failure(self):
        exp = _quick_experiment(aqm_factory=_divergent_factory(10), seed=1)
        result, failure = run_with_retries(exp, label="doomed", max_retries=2)
        assert result is None
        assert isinstance(failure, RunFailure)
        assert failure.label == "doomed"
        assert failure.error_type == "ControllerDivergence"
        assert failure.sim_time is not None
        assert failure.seeds_tried == (
            1,
            1 + RETRY_SEED_STRIDE,
            1 + 2 * RETRY_SEED_STRIDE,
        )
        assert "ControllerDivergence" in str(failure)

    def test_zero_retries_fail_fast(self):
        exp = _quick_experiment(aqm_factory=_divergent_factory(10), seed=5)
        result, failure = run_with_retries(exp, label="x", max_retries=0)
        assert result is None
        assert failure.seeds_tried == (5,)

    def test_config_errors_are_not_retried(self):
        """A ConfigError would fail identically on every seed; it must
        propagate instead of burning retries."""
        with pytest.raises(ConfigError):
            run_with_retries(
                _quick_experiment(sample_period=-1.0), label="bad config"
            )


class TestGridCapture:
    def test_grid_with_forced_failure_completes_remaining_cells(self):
        """The acceptance-criteria scenario: one cell's AQM diverges on
        every attempt; the sweep must finish the other cells and report
        the failure with sim-time context."""
        # 2 attempts (1 retry) for the first cell, then clean AQMs.
        outcome = run_coexistence_grid(
            _divergent_factory(2),
            links_mbps=[10],
            rtts_ms=[10, 20, 40],
            duration=3.0,
            warmup=1.0,
            on_error="capture",
            max_retries=1,
        )
        assert len(outcome) == 2  # cells rtt=20, rtt=40 survived
        assert not outcome.complete
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.error_type == "ControllerDivergence"
        assert failure.sim_time is not None
        report = outcome.failure_report()
        assert "rtt=10ms" in report
        assert "ControllerDivergence" in report

    def test_grid_raise_mode_propagates(self):
        with pytest.raises(ControllerDivergence):
            run_coexistence_grid(
                _divergent_factory(99),
                links_mbps=[10],
                rtts_ms=[10],
                duration=3.0,
                warmup=1.0,
                on_error="raise",
            )

    def test_grid_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            run_coexistence_grid(pi2_factory(), on_error="ignore")

    def test_clean_grid_is_complete(self):
        outcome = run_coexistence_grid(
            pi2_factory(),
            links_mbps=[10],
            rtts_ms=[10],
            duration=3.0,
            warmup=1.0,
            on_error="capture",
        )
        assert outcome.complete
        assert outcome.failures == []
        assert outcome.failure_report() == "all runs completed"

    def test_mix_sweep_capture(self):
        """The Figure 19–20 flow-mix cells under capture: the first mix
        fails both attempts, the second completes."""
        tasks = [task for _a, _b, task in _mix_tasks(
            _divergent_factory(2), "dctcp", "cubic", [(1, 1), (2, 1)], 10, 10.0,
            3.0, 1.0, 1,
        )]
        pairs = execute_tasks(tasks, on_error="capture", max_retries=1)
        assert [result is not None for result, _failure in pairs] == [False, True]
        assert pairs[0][1].error_type == "ControllerDivergence"


def _seed_replicas(factory, seeds):
    """One cell per seed, as ``abl_decision_modes`` repeats its cells."""
    return [SweepTask(f"seed {seed}", _quick_experiment(aqm_factory=factory, seed=seed))
            for seed in seeds]


class TestRepeatCapture:
    def test_dead_seeds_skipped_estimates_from_survivors(self):
        pairs = execute_tasks(
            _seed_replicas(_divergent_factory(2), (1, 2, 3)),
            on_error="capture",
            max_retries=0,
        )
        # Seeds 1 and 2 got poisoned AQMs; only seed 3 yields a result.
        assert [failure is not None for _result, failure in pairs] == [True, True, False]
        assert pairs[2][0].sojourn_summary()["mean"] > 0

    def test_raise_mode_is_default(self):
        with pytest.raises(ControllerDivergence):
            execute_tasks(_seed_replicas(_divergent_factory(99), (1, 2)))


class TestFailureReport:
    def test_empty_report(self):
        assert format_failure_report([]) == "all runs completed"

    def test_report_lists_each_failure(self):
        failures = [
            RunFailure(
                label="cell A",
                seeds_tried=(1, 100004),
                error_type="ControllerDivergence",
                error="p went NaN",
                sim_time=1.25,
                component="PIController",
            ),
            RunFailure(
                label="cell B",
                seeds_tried=(2,),
                error_type="WatchdogExceeded",
                error="budget exhausted",
            ),
        ]
        report = format_failure_report(failures)
        assert "2 run(s) failed" in report
        assert "cell A" in report and "cell B" in report
        assert "t=1.25" in report


class TestExperimentValidation:
    def test_sample_period_must_be_positive(self):
        with pytest.raises(ConfigError):
            _quick_experiment(sample_period=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            # The first sample would fall at t=5, after the run ends at
            # t=3, so every utilization and probability summary read NaN.
            dict(sample_period=5.0),
            # Ten 0.1 s steps sum to 0.9999999999999999, just before the
            # warmup, and the next firing falls after the run ends.
            dict(duration=1.05, warmup=1.0, sample_period=0.1),
        ],
        ids=["past_the_end", "float_sums"],
    )
    def test_sample_period_must_sample_after_warmup(self, overrides):
        with pytest.raises(ConfigError, match="takes no sample in"):
            _quick_experiment(**overrides)

    def test_sample_at_duration_is_in_the_window(self):
        """The timer's sample at t=duration is taken and read, so a
        period equal to the duration leaves one post-warmup sample."""
        exp = _quick_experiment(sample_period=3.0)  # duration=3, warmup=1
        result = run_experiment(exp)
        assert result.utilization.times.tolist() == [3.0]
        assert math.isfinite(result.utilization_summary()["mean"])

    #: (duration, warmup, sample_period) on either side of the rule.
    SAMPLE_WINDOWS = {
        "every_second": (3.0, 1.0, 1.0),
        "first_after_warmup": (3.0, 1.0, 2.0),
        "at_warmup": (3.0, 2.0, 1.0),
        "no_warmup": (0.5, 0.0, 0.5),
        "jumps_over_window": (3.0, 2.5, 2.0),
        "second_firing_past_end": (4.0, 3.5, 3.0),
        "lands_on_duration": (3.0, 2.5, 1.5),
        "thirds_sum_to_duration": (1.0, 0.9, 1 / 3),
        "float_sum_past_duration": (2.0, 1.5, 0.7),
        "float_sum_just_in": (2.1, 1.5, 0.7),
        "eleventh_tenth": (1.1, 1.0, 0.1),
    }

    @pytest.mark.parametrize("case", sorted(SAMPLE_WINDOWS))
    def test_sample_window_rule_matches_the_sampling_timer(self, case):
        """The check accepts a setting exactly when the engine's timer,
        armed as the dumbbell arms it, fires at least once in
        [warmup, duration]; the cases sit on both sides of the rule,
        some only through float sums."""
        duration, warmup, period = self.SAMPLE_WINDOWS[case]
        sim, firings = Simulator(), []
        sim.every(period, lambda: firings.append(sim.now))
        sim.run(duration)
        sampled = any(warmup <= t <= duration for t in firings)
        try:
            _quick_experiment(duration=duration, warmup=warmup, sample_period=period)
        except ConfigError as exc:
            assert "takes no sample in" in str(exc)
            accepted = False
        else:
            accepted = True
        assert accepted == sampled

    def test_buffer_packets_must_be_positive(self):
        with pytest.raises(ConfigError):
            _quick_experiment(buffer_packets=0)

    def test_capacity_schedule_must_be_sorted(self):
        with pytest.raises(ConfigError):
            _quick_experiment(capacity_schedule=[(2.0, 5e6), (1.0, 8e6)])

    def test_capacity_schedule_time_within_duration(self):
        with pytest.raises(ConfigError):
            _quick_experiment(capacity_schedule=[(10.0, 5e6)])  # duration=3

    def test_capacity_schedule_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            _quick_experiment(capacity_schedule=[(-1.0, 5e6)])

    def test_capacity_schedule_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            _quick_experiment(capacity_schedule=[(1.0, 0.0)])

    @pytest.mark.parametrize(
        "entry", [(float("nan"), 5e6), (1.0, float("nan")), (1.0, float("inf"))]
    )
    def test_capacity_schedule_non_finite_rejected(self, entry):
        # A NaN time or rate used to pass and fail only inside the run.
        with pytest.raises(ConfigError):
            _quick_experiment(capacity_schedule=[entry])

    def test_capacity_schedule_pair_shape(self):
        with pytest.raises(ConfigError):
            _quick_experiment(capacity_schedule=[(1.0,)])

    def test_watchdog_budgets_must_be_positive(self):
        with pytest.raises(ConfigError):
            _quick_experiment(max_events=0)
        with pytest.raises(ConfigError):
            _quick_experiment(max_wall_seconds=-1.0)

    def test_config_error_is_value_error(self):
        """Backwards compatibility: older callers catch ValueError."""
        with pytest.raises(ValueError):
            _quick_experiment(sample_period=-1.0)

    def test_valid_experiment_accepted(self):
        exp = _quick_experiment(
            capacity_schedule=[(1.0, 5e6), (2.0, 8e6)],
            validate=True,
            max_events=10_000_000,
        )
        assert exp.validate


class TestExperimentWatchdog:
    def test_max_events_aborts_runaway_run(self):
        from repro.errors import WatchdogExceeded

        exp = _quick_experiment(max_events=500)
        with pytest.raises(WatchdogExceeded):
            run_experiment(exp)

    def test_watchdog_failure_captured_by_retries(self):
        exp = _quick_experiment(max_events=500)
        result, failure = run_with_retries(exp, label="tiny budget", max_retries=0)
        assert result is None
        assert failure.error_type == "WatchdogExceeded"

    def test_traced_run_trips_where_untraced_does(self):
        """The event budget spans every epoch of a traced run: the same
        budgeted experiment raises at the same sim time either way."""
        from repro.errors import WatchdogExceeded
        from repro.obs.trace import RecordingTracer

        exp = _quick_experiment(max_events=3000)  # trips well past 0.25 s
        trips = []
        for tracer in (None, RecordingTracer(["engine"])):
            with pytest.raises(WatchdogExceeded) as info:
                run_experiment(exp, tracer=tracer)
            trips.append(info.value.sim_time)
        assert trips[0] == trips[1]
        assert trips[0] > 0.5


#: The seed whose cell diverges in :func:`pi_diverging_at_seed_5`.
_DOOMED_SEED = 5


def pi_diverging_at_seed_5(rng: random.Random):
    """PI whose controller goes NaN in a run at seed 5 (recognised by its
    fresh ``aqm`` stream) and runs clean at every other seed.  A
    module-level function: cacheable by name and picklable for workers."""
    aqm = PiAqm(rng=rng)
    if rng.getstate() == RandomStreams(_DOOMED_SEED).stream("aqm").getstate():
        original = aqm.controller.update
        aqm.controller.update = lambda delay, gain_scale=1.0: original(float("nan"))
    return aqm


class TestSeedBumpedResultStaysOffTheDeclaredKey:
    """A cell that fails on its declared seed and succeeds on the bumped
    one: capture mode returns the bumped result, but the cache and the
    journal never file it under the declared seed's key, so a later run
    of the same cell cannot be served it."""

    @pytest.mark.parametrize("cache_cls", [ResultCache])
    @pytest.mark.parametrize("jobs", [None, 2], ids=["inline", "jobs2"])
    def test_capture_then_raise_does_not_hit_the_bumped_result(
        self, tmp_path, jobs, cache_cls
    ):
        task = SweepTask(
            "doomed at 5",
            _quick_experiment(aqm_factory=pi_diverging_at_seed_5, seed=_DOOMED_SEED),
        )
        key = experiment_cache_key(task.experiment)
        journal = tmp_path / "run.journal"
        bumped = _DOOMED_SEED + RETRY_SEED_STRIDE
        report = RunReport()
        [(result, failure)] = execute_tasks(
            [task], jobs=jobs, on_error="capture", max_retries=1,
            cache=cache_cls(tmp_path / "cache"), journal=journal, report=report,
        )
        assert failure is None and result is not None
        assert result.experiment.seed == bumped
        assert report.executed == 1 and report.journal_appends == 0
        [action] = [a for a in report.actions if a.action == "seed-bumped result"]
        assert action.label == "doomed at 5"
        assert f"seed {bumped}," in action.detail
        assert cache_cls(tmp_path / "cache").get(key) is None
        assert key not in ResultJournal(journal).read().replay_map()

        # A later strict run of the same cell fails on its own seed.
        with pytest.raises((ControllerDivergence, ParallelExecutionError)):
            execute_tasks(
                [task], jobs=jobs, on_error="raise", max_retries=0,
                cache=cache_cls(tmp_path / "cache"), journal=journal, resume=True,
            )
