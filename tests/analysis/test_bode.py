"""Unit tests for Bode margins — the paper's Figures 4 and 7 claims.

These are the analytical reproduction targets:

* Figure 4: a fixed-gain PI on Reno has a gain margin that degrades
  diagonally as p falls, going negative (unstable) at low p, while the
  auto-tuned (PIE) gains keep it positive.
* Figure 7: squaring flattens the margin across the whole load range;
  2.5× higher gains stay stable everywhere; the Scalable-on-PI margins
  look like the PI2 ones with ~2× more headroom.
"""

import numpy as np
import pytest

from repro.analysis.bode import (
    Margins,
    margins_from_loop,
    margins_reno_pi,
    margins_reno_pi2,
    margins_reno_pie,
    margins_scal_pi,
)
from repro.analysis.fluid import (
    PAPER_PI2_GAINS,
    PAPER_PIE_GAINS,
    PAPER_SCAL_GAINS,
)

R0 = 0.1  # the paper's 100 ms analysis RTT


class TestMarginComputation:
    def test_known_first_order_system_with_delay(self):
        # L(s) = K e^{-sT}/s: phase crossover at ω = π/(2T),
        # GM = -20 log10(K·2T/π).
        K, T = 1.0, 0.1

        def loop(s):
            return K * np.exp(-s * T) / s

        m = margins_from_loop(loop)
        w_pc = np.pi / (2 * T)
        expected_gm = -20 * np.log10(K / w_pc)
        assert m.gain_margin_db == pytest.approx(expected_gm, abs=0.1)
        # |L| = 1 at ω = K → PM = 180 − 90 − ω·T·180/π.
        expected_pm = 180 - 90 - np.degrees(K * T)
        assert m.phase_margin_deg == pytest.approx(expected_pm, abs=0.5)

    def test_stable_property(self):
        assert Margins(10.0, 45.0).stable
        assert not Margins(-3.0, 45.0).stable
        assert not Margins(10.0, -5.0).stable
        assert Margins(None, None).stable


class TestFigure4:
    """Fixed-gain PI margins degrade at low p; auto-tune rescues them."""

    def test_fixed_gain_unstable_at_low_p(self):
        m = margins_reno_pi(1e-4, R0, PAPER_PIE_GAINS, tune_factor=1.0)
        assert m.gain_margin_db is not None
        assert m.gain_margin_db < 0

    def test_fixed_gain_stable_at_high_p(self):
        m = margins_reno_pi(0.3, R0, PAPER_PIE_GAINS, tune_factor=1.0)
        assert m.stable

    def test_gain_margin_diagonal_in_p(self):
        """GM grows ~10 dB per decade of p for fixed gains (κ_R = 1/2p)."""
        m1 = margins_reno_pi(0.001, R0, PAPER_PIE_GAINS)
        m2 = margins_reno_pi(0.01, R0, PAPER_PIE_GAINS)
        assert m2.gain_margin_db - m1.gain_margin_db == pytest.approx(10.0, abs=2.0)

    def test_smaller_tune_shifts_margin_up(self):
        m_full = margins_reno_pi(1e-4, R0, PAPER_PIE_GAINS, tune_factor=1.0)
        m_eighth = margins_reno_pi(1e-4, R0, PAPER_PIE_GAINS, tune_factor=1 / 8)
        assert m_eighth.gain_margin_db > m_full.gain_margin_db

    def test_auto_tune_keeps_margin_positive_across_range(self):
        for p in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5):
            m = margins_reno_pie(p, R0, PAPER_PIE_GAINS)
            assert m.gain_margin_db is None or m.gain_margin_db > 0, f"p={p}"


class TestFigure7:
    """PI2's flat margins and the ×2.5 gain headroom."""

    def test_pi2_margin_positive_across_full_range(self):
        for pp in (0.001, 0.01, 0.1, 0.3, 0.6, 0.9):
            m = margins_reno_pi2(pp, R0, PAPER_PI2_GAINS)
            assert m.gain_margin_db is None or m.gain_margin_db > 0, f"p'={pp}"

    def test_pi2_margin_is_flat(self):
        """Across three decades of p' the GM varies far less than the
        30 dB a fixed-gain direct-p controller would swing."""
        gms = [
            margins_reno_pi2(pp, R0, PAPER_PI2_GAINS).gain_margin_db
            for pp in (0.001, 0.01, 0.1)
        ]
        assert max(gms) - min(gms) < 6.0

    def test_direct_p_margin_is_diagonal_in_contrast(self):
        gms = [
            margins_reno_pi(p, R0, PAPER_PIE_GAINS).gain_margin_db
            for p in (0.001, 0.01, 0.1)
        ]
        assert max(gms) - min(gms) > 15.0

    def test_scalable_pi_margins_similar_to_pi2(self):
        """'scal pi' curves (2× gains) stay stable across the range."""
        for pp in (0.01, 0.1, 0.5, 0.9):
            m = margins_scal_pi(pp, R0, PAPER_SCAL_GAINS)
            assert m.gain_margin_db is None or m.gain_margin_db > 0, f"p'={pp}"

    def test_scalable_has_headroom_for_double_gains(self):
        """At the same p', scal-PI with 2× PI2 gains keeps a margin
        comparable to reno-PI2 — the basis of the k = 2 gain ratio."""
        pp = 0.1
        m_scal = margins_scal_pi(pp, R0, PAPER_SCAL_GAINS)
        m_pi2 = margins_reno_pi2(pp, R0, PAPER_PI2_GAINS)
        assert abs(m_scal.gain_margin_db - m_pi2.gain_margin_db) < 6.0

    def test_high_load_margin_slightly_above_10db(self):
        """Paper: 'Only at high loads, when p' is higher than 60 % ...
        is the gain margin of PI2 slightly above 10 dB'."""
        m = margins_reno_pi2(0.8, R0, PAPER_PI2_GAINS)
        assert m.gain_margin_db > 10.0
