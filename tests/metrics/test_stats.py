"""Unit tests for the statistics helpers behind Figures 14–20."""

import math

import pytest

from repro.metrics.stats import (
    geometric_mean,
    normalized_rates,
    percentile_summary,
    rate_balance_ratio,
)


class TestPercentileSummary:
    def test_keys(self):
        out = percentile_summary([1.0, 2.0, 3.0], percentiles=(25, 99))
        assert set(out) == {"mean", "p25", "p99"}

    def test_values(self):
        data = list(range(101))
        out = percentile_summary(data, percentiles=(1, 50, 99))
        assert out["mean"] == pytest.approx(50.0)
        assert out["p50"] == pytest.approx(50.0)
        assert out["p99"] == pytest.approx(99.0)

    def test_empty_gives_nans(self):
        out = percentile_summary([], percentiles=(50,))
        assert math.isnan(out["mean"]) and math.isnan(out["p50"])


class TestRateBalance:
    def test_equal_classes_ratio_one(self):
        assert rate_balance_ratio([10.0, 10.0], [10.0]) == pytest.approx(1.0)

    def test_starved_class(self):
        # The PIE pathology: class A (Cubic) starved ~10×.
        assert rate_balance_ratio([1.0], [10.0]) == pytest.approx(0.1)

    def test_zero_denominator_is_inf(self):
        assert rate_balance_ratio([1.0], [0.0]) == math.inf

    def test_empty_is_nan(self):
        assert math.isnan(rate_balance_ratio([], [1.0]))


class TestNormalizedRates:
    def test_fair_share_normalization(self):
        # 4 flows on 40 Mb/s → fair = 10 Mb/s each.
        out = normalized_rates([10e6, 20e6], capacity_bps=40e6, total_flows=4)
        assert out == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            normalized_rates([1.0], capacity_bps=0, total_flows=1)
        with pytest.raises(ValueError):
            normalized_rates([1.0], capacity_bps=1e6, total_flows=0)


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_ignores_non_positive(self):
        assert geometric_mean([0.0, -5.0, 4.0]) == pytest.approx(4.0)

    def test_all_non_positive_is_nan(self):
        assert math.isnan(geometric_mean([0.0, -1.0]))
