"""Unit tests for the web-like short-flow workload generator."""

import random

import pytest

from repro.traffic.web import WebWorkload, bounded_pareto_segments


class TestBoundedPareto:
    def test_respects_bounds(self):
        rng = random.Random(1)
        sizes = [bounded_pareto_segments(rng, minimum=2, maximum=100) for _ in range(2000)]
        assert min(sizes) >= 2
        assert max(sizes) <= 100

    def test_heavy_tail_shape(self):
        rng = random.Random(1)
        sizes = [bounded_pareto_segments(rng, minimum=2, maximum=10_000) for _ in range(5000)]
        small = sum(s <= 10 for s in sizes) / len(sizes)
        big = sum(s >= 200 for s in sizes) / len(sizes)
        assert small > 0.5  # most flows are tiny
        assert big > 0.001  # but elephants exist

    def test_invalid_params_rejected(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            bounded_pareto_segments(rng, shape=0)
        with pytest.raises(ValueError):
            bounded_pareto_segments(rng, minimum=10, maximum=5)


class TestWebWorkload:
    def _spawn_instantly(self, sim):
        """Flow spawner that completes after a deterministic 'transfer'."""

        def spawn(size, on_complete):
            sim.schedule(size * 0.001, on_complete, size * 0.001)

        return spawn

    def test_poisson_arrival_count(self, sim):
        wl = WebWorkload(sim, self._spawn_instantly(sim), arrival_rate=50.0,
                         rng=random.Random(1))
        wl.start(0.0)
        sim.run(20.0)
        assert wl.flows_started == pytest.approx(1000, rel=0.15)

    def test_until_bounds_arrivals(self, sim):
        wl = WebWorkload(sim, self._spawn_instantly(sim), arrival_rate=100.0,
                         rng=random.Random(1))
        wl.start(0.0, until=1.0)
        sim.run(10.0)
        assert wl.flows_started == pytest.approx(100, rel=0.35)

    def test_stop(self, sim):
        wl = WebWorkload(sim, self._spawn_instantly(sim), arrival_rate=100.0,
                         rng=random.Random(1))
        wl.start(0.0, until=0.5)
        sim.run(10.0)
        assert wl.flows_started < 120

    def test_completion_times_recorded(self, sim):
        wl = WebWorkload(sim, self._spawn_instantly(sim), arrival_rate=50.0,
                         rng=random.Random(1))
        wl.start(0.0)
        sim.run(5.0)
        assert len(wl.completion_times) > 0
        assert wl.mean_fct() > 0

    def test_percentile_fct(self, sim):
        wl = WebWorkload(sim, self._spawn_instantly(sim), arrival_rate=50.0,
                         rng=random.Random(1))
        wl.start(0.0)
        sim.run(10.0)
        assert wl.percentile_fct(99) >= wl.percentile_fct(50)

    def test_invalid_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            WebWorkload(sim, lambda s, c: None, arrival_rate=0, rng=random.Random(1))
