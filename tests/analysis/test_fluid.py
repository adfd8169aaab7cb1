"""Unit tests for the Appendix B fluid-model transfer functions."""

import math

import numpy as np
import pytest

from repro.analysis.fluid import (
    PAPER_PI2_GAINS,
    PAPER_PIE_GAINS,
    PAPER_SCAL_GAINS,
    AqmTransfer,
    PiGains,
    loop_reno_p,
    loop_reno_p2,
    loop_scal_p,
)


class TestPiGains:
    def test_paper_parameter_sets(self):
        assert (PAPER_PIE_GAINS.alpha, PAPER_PIE_GAINS.beta) == (0.125, 1.25)
        assert (PAPER_PI2_GAINS.alpha, PAPER_PI2_GAINS.beta) == (0.3125, 3.125)
        assert (PAPER_SCAL_GAINS.alpha, PAPER_SCAL_GAINS.beta) == (0.625, 6.25)

    def test_scaled(self):
        g = PAPER_PIE_GAINS.scaled(0.5)
        assert g.alpha == pytest.approx(0.0625)
        assert g.beta == pytest.approx(0.625)
        assert g.t_update == PAPER_PIE_GAINS.t_update

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            PiGains(alpha=0, beta=1)
        with pytest.raises(ValueError):
            PiGains(alpha=1, beta=1, t_update=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("name", ["alpha", "beta", "t_update"])
    def test_non_finite_or_negative_rejected(self, name, value):
        """NaN fails every comparison, so a ``<= 0`` check let it through
        and the margins came out nan; an infinite gain did the same."""
        params = dict(alpha=0.3125, beta=3.125, t_update=0.032)
        params[name] = value
        with pytest.raises(ValueError, match="must be positive and finite"):
            PiGains(**params)


class TestAqmTransfer:
    def test_constants_equation31(self):
        aqm = AqmTransfer(PiGains(alpha=0.3125, beta=3.125, t_update=0.032), r0=0.1)
        assert aqm.kappa_a == pytest.approx(0.3125 * 0.1 / 0.032)
        assert aqm.z_a == pytest.approx(0.3125 / (0.032 * (3.125 + 0.3125 / 2)))
        assert aqm.s_a == pytest.approx(10.0)

    def test_invalid_r0_rejected(self):
        with pytest.raises(ValueError):
            AqmTransfer(PAPER_PIE_GAINS, r0=0)


class TestLoopFunctions:
    def test_integrator_behaviour_at_low_frequency(self):
        # All loops contain 1/s: |L| → ∞ and phase → −90° as ω → 0.
        s = np.array([1e-6j])
        for fn, p in [(loop_reno_p, 0.01), (loop_reno_p2, 0.1), (loop_scal_p, 0.1)]:
            val = fn(s, p, 0.1, PAPER_PI2_GAINS)[0]
            assert abs(val) > 1e3
            assert math.degrees(np.angle(val)) == pytest.approx(-90, abs=5)

    def test_gain_rolls_off_at_high_frequency(self):
        s = np.array([1e-2j, 1e3j])
        for fn, p in [(loop_reno_p, 0.01), (loop_reno_p2, 0.1), (loop_scal_p, 0.1)]:
            lo, hi = np.abs(fn(s, p, 0.1, PAPER_PI2_GAINS))
            assert hi < lo

    def test_reno_p2_gain_is_linear_in_p_prime(self):
        """The PI2 plant gain κ_S = 1/p₀′ scales linearly — the core of the
        linearization claim (vs κ_R = 1/(2p₀) = 1/(2p₀′²) for direct p)."""
        s = np.array([1e-6j])  # near-DC, where the plant gain dominates
        v1 = abs(loop_reno_p2(s, 0.1, 0.1, PAPER_PI2_GAINS)[0])
        v2 = abs(loop_reno_p2(s, 0.2, 0.1, PAPER_PI2_GAINS)[0])
        assert v1 / v2 == pytest.approx(2.0, rel=0.1)

    def test_reno_p_gain_scales_inverse_p(self):
        s = np.array([1e-6j])
        v1 = abs(loop_reno_p(s, 0.01, 0.1, PAPER_PIE_GAINS)[0])
        v2 = abs(loop_reno_p(s, 0.04, 0.1, PAPER_PIE_GAINS)[0])
        assert v1 / v2 == pytest.approx(4.0, rel=0.1)

    def test_kappa_relation_between_reno_forms(self):
        """κ_R = κ_S/2 when the operating variables are numerically equal
        (the identification below eq. (34): κ_S = 1/p₀′, κ_R = 1/(2p₀))."""
        s = np.array([1e-6j])
        x = 0.3  # p₀ = p₀′ = 0.3 numerically
        direct = abs(loop_reno_p(s, x, 0.1, PAPER_PIE_GAINS)[0])
        squared = abs(loop_reno_p2(s, x, 0.1, PAPER_PIE_GAINS)[0])
        assert squared / direct == pytest.approx(2.0, rel=0.05)

    def test_operating_point_validation(self):
        s = np.array([1j])
        with pytest.raises(ValueError):
            loop_reno_p(s, 0.0, 0.1, PAPER_PIE_GAINS)
        with pytest.raises(ValueError):
            loop_reno_p2(s, 1.5, 0.1, PAPER_PI2_GAINS)
        with pytest.raises(ValueError):
            loop_scal_p(s, 0.5, 0.0, PAPER_SCAL_GAINS)

    def test_vectorized_evaluation(self):
        s = 1j * np.logspace(-3, 3, 50)
        out = loop_reno_p2(s, 0.2, 0.1, PAPER_PI2_GAINS)
        assert out.shape == s.shape
        assert np.all(np.isfinite(out))
