"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.steady_state import coupled_classic_probability
from repro.aqm.pi import PIController
from repro.aqm.tune_table import sqrt2p, tune
from repro.metrics.stats import percentile_summary
from repro.sim.engine import Simulator
from repro.traffic.web import bounded_pareto_segments

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: Equation (14) takes a strictly positive signal probability.
signal_probabilities = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)
small_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run(200.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=29))
    @settings(max_examples=30, deadline=None)
    def test_cancellation_removes_exactly_one(self, delays, idx):
        sim = Simulator()
        fired = []
        events = [sim.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
        victim = idx % len(events)
        events[victim].cancel()
        sim.run(100.0)
        assert victim not in fired
        assert len(fired) == len(delays) - 1


class TestPiControllerProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_output_always_clamped(self, delays):
        ctl = PIController(alpha=0.3125, beta=3.125, target=0.020)
        for d in delays:
            p = ctl.update(d)
            assert 0.0 <= p <= 1.0

    @given(st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_steady_delay_above_target_increases_p(self, extra):
        ctl = PIController(alpha=0.3125, beta=3.125, target=0.020)
        delay = 0.020 + 1e-6 + extra
        p_prev = -1.0
        for _ in range(10):
            p = ctl.update(delay)
            if p < 1.0:
                assert p > p_prev
            p_prev = p

    @given(probabilities)
    @settings(max_examples=50, deadline=None)
    def test_p_max_respected(self, p_max):
        if p_max <= 0:
            return
        ctl = PIController(alpha=10.0, beta=10.0, target=0.001, p_max=p_max)
        for _ in range(50):
            ctl.update(10.0)
        assert ctl.p <= p_max


class TestCouplingProperties:
    """Equation (14), ``pc = (ps / k)²``."""

    @given(signal_probabilities, st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=100, deadline=None)
    def test_classic_never_exceeds_scalable(self, ps, k):
        assert coupled_classic_probability(ps, k) <= ps + 1e-12

    @given(signal_probabilities, st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=100, deadline=None)
    def test_coupling_round_trip_below_clamp(self, ps, k):
        pc = coupled_classic_probability(ps, k)
        assert abs(k * math.sqrt(pc) - ps) < 1e-9

    @given(st.lists(signal_probabilities, min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_squaring_is_monotone(self, ps):
        ordered = sorted(ps)
        squared = [coupled_classic_probability(p, k=1.0) for p in ordered]
        assert squared == sorted(squared)


class TestTuneTableProperties:
    @given(probabilities)
    @settings(max_examples=200, deadline=None)
    def test_tune_bounded(self, p):
        assert 1 / 2048 <= tune(p) <= 1.0

    @given(probabilities, probabilities)
    @settings(max_examples=200, deadline=None)
    def test_tune_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert tune(lo) <= tune(hi)

    @given(st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_sqrt2p_monotone_and_positive(self, p):
        assert sqrt2p(p) > 0
        assert sqrt2p(p) <= sqrt2p(min(1.0, p * 2)) + 1e-12


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_ordered(self, xs):
        out = percentile_summary(xs, percentiles=(1, 25, 50, 99))
        assert out["p1"] <= out["p25"] <= out["p50"] <= out["p99"]
        assert out["p1"] <= out["mean"] <= out["p99"] or math.isclose(
            out["p1"], out["p99"]
        )


class TestWorkloadProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=50),
           st.integers(min_value=51, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_pareto_always_in_bounds(self, seed, lo, hi):
        rng = random.Random(seed)
        for _ in range(20):
            s = bounded_pareto_segments(rng, minimum=lo, maximum=hi)
            assert lo <= s <= hi
