"""Unit tests for the invariant checker, the PI divergence guard, the
engine's structured error handling and the watchdog."""

import math

import pytest

from repro.aqm.pi import PiAqm, PIController
from repro.errors import (
    CallbackError,
    ControllerDivergence,
    InvariantViolation,
    WatchdogExceeded,
)
from repro.net.queue import AQMQueue
from repro.obs.trace import RecordingTracer
from repro.sim.engine import Simulator, Watchdog
from repro.sim.invariants import InvariantChecker
from tests.conftest import make_packet


# ----------------------------------------------------------------------
# Invariant checker
# ----------------------------------------------------------------------
class BrokenAqm:
    """An AQM stub whose probability leaves [0,1] — the silent failure
    mode the checker exists to catch."""

    def __init__(self, probability):
        self.probability = probability
        self.raw_probability = 0.5


class TestInvariantChecker:
    def test_clean_queue_passes(self, sim):
        q = AQMQueue(sim, None, 10e6)
        checker = InvariantChecker(sim, queue=q)
        for i in range(5):
            q.enqueue(make_packet(seq=i))
        q.dequeue()
        checker.check_now()
        assert checker.checks_run == 1

    def test_detects_probability_above_one(self, sim):
        checker = InvariantChecker(sim, aqm=BrokenAqm(1.3))
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "probability_range"
        assert "1.3" in str(info.value)

    def test_detects_nan_probability(self, sim):
        checker = InvariantChecker(sim, aqm=BrokenAqm(float("nan")))
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "probability_range"

    def test_detects_negative_probability(self, sim):
        checker = InvariantChecker(sim, aqm=BrokenAqm(-0.01))
        with pytest.raises(InvariantViolation):
            checker.check_now()

    def test_detects_conservation_break(self, sim):
        q = AQMQueue(sim, None, 10e6)
        q.enqueue(make_packet())
        q.stats.arrived += 3  # corrupt the books
        checker = InvariantChecker(sim, queue=q)
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "conservation"
        assert info.value.context["arrived"] == q.stats.arrived

    def test_detects_occupancy_break(self, sim):
        q = AQMQueue(sim, None, 10e6)
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        q._fifo.pop()  # packet vanishes without accounting
        q._bytes -= 1500
        checker = InvariantChecker(sim, queue=q)
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "conservation"

    def test_violation_carries_sim_time_and_component(self, sim):
        checker = InvariantChecker(sim, aqm=BrokenAqm(2.0), label="bn0")
        sim.schedule(4.25, checker.check_now)
        with pytest.raises(InvariantViolation) as info:
            sim.run(10.0)
        assert info.value.sim_time == 4.25
        assert info.value.component == "bn0"

    def test_periodic_checking_via_timer(self, sim):
        q = AQMQueue(sim, None, 10e6)
        checker = InvariantChecker(sim, queue=q, check_interval=0.1)
        checker.start()
        sim.run(1.05)
        assert checker.checks_run == 10

    def test_queue_without_stats_skips_conservation(self, sim):
        class BareQueue:
            def packet_length(self):
                return 0

            def byte_length(self):
                return 0

        checker = InvariantChecker(sim, queue=BareQueue())
        checker.check_now()  # must not raise
        assert checker.checks_run == 1

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            InvariantChecker(sim, check_interval=0.0)


# ----------------------------------------------------------------------
# PI controller divergence guard
# ----------------------------------------------------------------------
class TestControllerDivergenceGuard:
    def test_nan_input_raises_structured_error(self):
        ctl = PIController(alpha=0.3125, beta=3.125, target=0.02)
        with pytest.raises(ControllerDivergence) as info:
            ctl.update(float("nan"))
        assert info.value.component == "PIController"
        assert not math.isnan(ctl.p)  # state not corrupted

    def test_infinite_input_raises(self):
        ctl = PIController(alpha=0.3125, beta=3.125, target=0.02)
        with pytest.raises(ControllerDivergence):
            ctl.update(float("inf"))

    def test_finite_input_still_works(self):
        ctl = PIController(alpha=0.3125, beta=3.125, target=0.02)
        p = ctl.update(0.05)
        assert 0.0 <= p <= 1.0

    def test_guard_applies_through_pi2_aqm(self, sim, rng):
        """A NaN delay measurement must surface as ControllerDivergence,
        not poison p and keep running."""
        from repro.core.pi2 import Pi2Aqm

        aqm = Pi2Aqm(rng=rng)

        class NanQueue:
            def byte_length(self):
                return 0

            def packet_length(self):
                return 0

            def queue_delay(self):
                return float("nan")

        aqm.attach(sim, NanQueue())
        with pytest.raises(ControllerDivergence):
            sim.run(0.1)

    def test_broken_aqm_detected_by_checker_in_experiment(self, sim, rng):
        """End-to-end: a sabotaged PiAqm emitting p > 1 is caught by the
        periodic invariant checker with sim-time context."""
        aqm = PiAqm(rng=rng)
        aqm.controller.p = 7.5  # sabotage: out-of-range probability
        checker = InvariantChecker(sim, aqm=aqm, check_interval=0.05)
        checker.start()
        with pytest.raises(InvariantViolation) as info:
            sim.run(1.0)
        assert info.value.sim_time == pytest.approx(0.05)
        assert info.value.invariant == "probability_range"


# ----------------------------------------------------------------------
# Engine: structured callback errors, state restoration, watchdog
# ----------------------------------------------------------------------
class TestEngineErrorHandling:
    def test_running_flag_reset_after_callback_error(self, sim):
        def boom():
            raise RuntimeError("kaput")

        sim.schedule(1.0, boom)
        with pytest.raises(CallbackError):
            sim.run(10.0)
        assert not sim._running
        # The engine stays usable: a fresh run processes new events.
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run(10.0)
        assert fired == [2.0]

    def test_callback_error_carries_time_and_name(self, sim):
        def exploding_callback():
            raise ValueError("inner detail")

        sim.schedule(2.5, exploding_callback)
        with pytest.raises(CallbackError) as info:
            sim.run(10.0)
        err = info.value
        assert err.sim_time == 2.5
        assert "exploding_callback" in err.callback
        assert isinstance(err.__cause__, ValueError)
        assert "inner detail" in str(err)

    def test_clock_left_at_failing_event(self, sim):
        def boom():
            raise RuntimeError("x")

        sim.schedule(3.0, boom)
        with pytest.raises(CallbackError):
            sim.run(10.0)
        assert sim.now == 3.0

    def test_structured_errors_pass_through_unwrapped(self, sim):
        def raise_structured():
            raise ControllerDivergence("diverged", component="PI")

        sim.schedule(1.5, raise_structured)
        with pytest.raises(ControllerDivergence) as info:
            sim.run(10.0)
        # Not double-wrapped in CallbackError; sim_time filled in.
        assert info.value.sim_time == 1.5


class TestWatchdog:
    def test_event_budget_enforced(self, sim):
        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        sim.set_watchdog(max_events=250)
        with pytest.raises(WatchdogExceeded) as info:
            sim.run(1e9)
        assert info.value.sim_time is not None
        assert sim.events_processed == 250
        assert not sim._running

    def test_budget_counts_per_run_not_lifetime(self, sim):
        """The budget applies to each run() call, not cumulative events."""
        for _ in range(3):
            for i in range(10):
                sim.schedule(0.001 * (i + 1), lambda: None)
            sim.set_watchdog(max_events=50)
            sim.run(sim.now + 1.0)  # 10 events < 50: fine every time

    def test_wall_clock_budget(self, sim):
        def loop():
            sim.schedule(1e-9, loop)

        sim.schedule(0.0, loop)
        sim.set_watchdog(max_wall_seconds=0.05)
        with pytest.raises(WatchdogExceeded):
            sim.run(1e9)

    def test_event_budget_holds_under_tracing(self):
        """A traced run dispatches in 0.25 s epochs; the budget spans
        them all and trips at the event an untraced run trips at."""

        def tripped(traced):
            sim = Simulator()
            if traced:
                sim.set_tracer(RecordingTracer(["engine"]))

            def loop():
                sim.schedule(0.001, loop)

            sim.schedule(0.0, loop)
            sim.set_watchdog(max_events=2500)  # ~10 epochs of 250 events
            with pytest.raises(WatchdogExceeded) as info:
                sim.run(20.0)  # 20 000 events: the budget must trip first
            return sim.events_processed, info.value.sim_time

        assert tripped(traced=True) == tripped(traced=False)
        assert tripped(traced=True)[0] == 2500

    def test_wall_clock_budget_holds_under_tracing(self):
        """Each epoch takes far less than the budget; only a budget
        shared across epochs trips before the run completes."""
        sim = Simulator()
        sim.set_tracer(RecordingTracer(["engine"]))

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        sim.set_watchdog(max_wall_seconds=0.05)
        with pytest.raises(WatchdogExceeded):
            sim.run(2_000.0)  # 2 million events: seconds of host time

    def test_no_watchdog_runs_to_completion(self, sim):
        fired = []
        for i in range(100):
            sim.schedule(0.01 * i, lambda i=i: fired.append(i))
        sim.run(10.0)
        assert len(fired) == 100

    def test_watchdog_validation(self):
        with pytest.raises(ValueError):
            Watchdog(max_events=0)
        with pytest.raises(ValueError):
            Watchdog(max_wall_seconds=-1.0)
