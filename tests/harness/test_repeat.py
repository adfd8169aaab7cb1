"""Tests for the seed-repetition confidence interval the ablations use."""

import math

import pytest

from repro.harness.repeat import _estimate


class TestMetricEstimate:
    def test_single_sample_infinite_ci(self):
        est = _estimate([0.02])
        assert est.mean == 0.02
        assert math.isinf(est.ci95)
        assert est.samples == (0.02,)

    def test_t_interval_over_three_seeds(self):
        est = _estimate([1.0, 2.0, 3.0])
        assert est.mean == 2.0
        # Two degrees of freedom: t = 4.303, sample std 1, n = 3.
        assert est.ci95 == pytest.approx(4.303 / math.sqrt(3))
        assert est.samples == (1.0, 2.0, 3.0)
