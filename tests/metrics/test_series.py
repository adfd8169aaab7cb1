"""Unit tests for time series recording."""

import math

import pytest

from repro.metrics.series import TimeSeries


class TestTimeSeries:
    def test_append_and_length(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        ts.append(2.0, 20.0)
        assert len(ts) == 2

    def test_numpy_export(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        assert ts.times.tolist() == [1.0]
        assert ts.values.tolist() == [10.0]

    def test_window_half_open(self):
        ts = TimeSeries()
        for t in range(5):
            ts.append(float(t), float(t))
        assert ts.window(1.0, 3.0).tolist() == [1.0, 2.0]

    def test_mean_over_window(self):
        ts = TimeSeries()
        for t in range(10):
            ts.append(float(t), float(t))
        assert ts.mean(5.0) == pytest.approx(7.0)

    def test_max_over_window(self):
        ts = TimeSeries()
        for t in range(100):
            ts.append(float(t), float(t))
        assert ts.max() == 99.0
        assert ts.max(10.0, 50.0) == 49.0

    def test_empty_stats_are_nan(self):
        ts = TimeSeries()
        assert math.isnan(ts.mean())
        assert math.isnan(ts.max())


class TestArrayCaching:
    """times/values build a numpy array once and reuse it until the next
    append — the arrays feed every percentile/mean call in the figure
    pipeline, so rebuilding per call was pure overhead."""

    def test_repeated_access_returns_cached_array(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        assert ts.times is ts.times
        assert ts.values is ts.values

    def test_append_invalidates_both_caches(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        before_t, before_v = ts.times, ts.values
        ts.append(2.0, 20.0)
        assert ts.times is not before_t
        assert ts.values is not before_v
        assert ts.times.tolist() == [1.0, 2.0]
        assert ts.values.tolist() == [10.0, 20.0]
        # The stale arrays are unchanged (no in-place mutation).
        assert before_t.tolist() == [1.0]

    def test_pickle_round_trip_drops_caches_keeps_data(self):
        import pickle

        ts = TimeSeries(name="delay")
        for t in range(5):
            ts.append(float(t), float(t) * 2)
        _ = ts.times  # populate the cache before pickling
        clone = pickle.loads(pickle.dumps(ts))
        assert clone.name == "delay"
        assert clone.times.tolist() == ts.times.tolist()
        assert clone.values.tolist() == ts.values.tolist()
        clone.append(5.0, 10.0)  # still appendable after restore
        assert len(clone) == 6
        assert len(ts) == 5

    def test_stats_agree_with_fresh_series(self):
        ts = TimeSeries()
        for t in range(50):
            ts.append(float(t), float(t))
        _ = ts.values  # warm the cache
        ts.append(50.0, 50.0)
        assert ts.max() == 50.0
        assert ts.mean() == 25.0
