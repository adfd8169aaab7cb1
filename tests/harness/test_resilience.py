"""Tests for the resilient experiment runner: per-cell error capture,
seed-bumped retries, failure reports, and the new Experiment field
validation."""

import random

import pytest

from repro.aqm.pi import PiAqm
from repro.errors import ConfigError, ControllerDivergence
from repro.harness.experiment import Experiment, FlowGroup, run_experiment
from repro.harness.factories import pi2_factory
from repro.harness.repeat import repeat_experiment
from repro.harness.resilience import (
    RETRY_SEED_STRIDE,
    RunFailure,
    format_failure_report,
    run_with_retries,
)
from repro.harness.sweep import run_coexistence_grid, run_mix_sweep
from repro.net.faults import LinkFlapFault


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
        results = run_mix_sweep(
            _divergent_factory(2),
            mixes=[(1, 1), (2, 1)],
            capacity_mbps=10,
            duration=3.0,
            warmup=1.0,
            on_error="capture",
            max_retries=1,
        )
        assert len(results) == 1
        assert len(results.failures) == 1


class TestRepeatCapture:
    def test_dead_seeds_skipped_estimates_from_survivors(self):
        exp = _quick_experiment(aqm_factory=_divergent_factory(2))
        outcome = repeat_experiment(
            exp,
            {"delay": lambda r: r.sojourn_summary()["mean"]},
            seeds=(1, 2, 3),
            on_error="capture",
            max_retries=0,
        )
        # Seeds 1 and 2 got poisoned AQMs; only seed 3 contributes.
        assert len(outcome.failures) == 2
        assert not outcome.complete
        assert len(outcome["delay"].samples) == 1

    def test_raise_mode_is_default(self):
        exp = _quick_experiment(aqm_factory=_divergent_factory(99))
        with pytest.raises(ControllerDivergence):
            repeat_experiment(
                exp, {"d": lambda r: 0.0}, seeds=(1, 2)
            )


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

    def test_capacity_schedule_pair_shape(self):
        with pytest.raises(ConfigError):
            _quick_experiment(capacity_schedule=[(1.0,)])

    def test_faults_must_be_fault_instances(self):
        with pytest.raises(ConfigError):
            _quick_experiment(faults=["flap:1:2"])

    def test_fault_must_start_within_duration(self):
        with pytest.raises(ConfigError):
            _quick_experiment(faults=[LinkFlapFault(5.0, 1.0)])  # duration=3

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
            faults=[LinkFlapFault(1.5, 0.5)],
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
