"""Unit tests for Appendix A's steady-state laws."""

import math

import pytest

from repro.analysis import steady_state as ss


class TestScalability:
    """Section 2: c = pW, c ∝ W^(1−1/B), scalable iff B ≥ 1."""

    def test_signals_per_rtt(self):
        assert ss.signals_per_rtt(window=20, p=0.1) == pytest.approx(2.0)

    def test_reno_signals_shrink_with_rate(self):
        # For Reno, doubling the window quarters p, so c = pW halves.
        w1, w2 = 10.0, 20.0
        c1 = ss.signals_per_rtt(w1, ss.p_for_window_reno(w1))
        c2 = ss.signals_per_rtt(w2, ss.p_for_window_reno(w2))
        assert c2 == pytest.approx(c1 / 2)

    def test_dctcp_signals_constant_with_rate(self):
        # For DCTCP (B = 1), c = pW = 2 regardless of the window.
        for w in (10.0, 100.0, 1000.0):
            c = ss.signals_per_rtt(w, ss.p_for_window_dctcp(w))
            assert c == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "b,scalable",
        [
            (ss.B_RENO, False),
            (ss.B_CRENO, False),
            (ss.B_CUBIC, False),
            (ss.B_DCTCP_PROB, True),
            (ss.B_DCTCP_STEP, True),
        ],
    )
    def test_scalability_criterion(self, b, scalable):
        assert ss.is_scalable(b) is scalable

    def test_exponents(self):
        assert ss.scalability_exponent(0.5) == pytest.approx(-1.0)
        assert ss.scalability_exponent(1.0) == pytest.approx(0.0)
        assert ss.scalability_exponent(2.0) == pytest.approx(0.5)


class TestWindowLaws:
    def test_reno_equation5(self):
        assert ss.window_reno(0.01) == pytest.approx(12.2)

    def test_creno_equation7(self):
        assert ss.window_creno(0.01) == pytest.approx(16.8)

    def test_creno_constant_from_aimd(self):
        # 1.68 ≈ 1.22·√((1+0.7)·0.5/(1−0.7)·...): check via AIMD formula
        # W_mean = sqrt(a(1+b)/(2(1-b)p)) with a=1, b=0.7.
        derived = math.sqrt(1 * (1 + 0.7) / (2 * (1 - 0.7)))
        assert derived == pytest.approx(1.68, abs=0.005)

    def test_cubic_equation6(self):
        assert ss.window_cubic(0.01, rtt=1.0) == pytest.approx(1.17 / 0.01 ** 0.75)

    def test_cubic_rtt_dependence(self):
        # W ∝ R^¾.
        r = ss.window_cubic(0.01, rtt=0.2) / ss.window_cubic(0.01, rtt=0.1)
        assert r == pytest.approx(2 ** 0.75)

    def test_dctcp_equation11(self):
        assert ss.window_dctcp(0.1) == pytest.approx(20.0)

    def test_dctcp_step_equation12(self):
        assert ss.window_dctcp_step(0.1) == pytest.approx(200.0)

    def test_step_marking_more_aggressive_at_low_p(self):
        # Equation (12) > (11) for p < 1: step marking sustains a larger
        # window for the same probability.
        for p in (0.01, 0.1, 0.5):
            assert ss.window_dctcp_step(p) > ss.window_dctcp(p)

    @pytest.mark.parametrize("fn", [ss.window_reno, ss.window_creno, ss.window_dctcp])
    def test_zero_p_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(0.0)


class TestInverses:
    def test_reno_round_trip(self):
        for p in (0.001, 0.01, 0.25):
            assert ss.p_for_window_reno(ss.window_reno(p)) == pytest.approx(p)

    def test_creno_round_trip(self):
        for p in (0.001, 0.01, 0.25):
            assert ss.p_for_window_creno(ss.window_creno(p)) == pytest.approx(p)

    def test_dctcp_round_trip(self):
        for p in (0.01, 0.1, 0.9):
            assert ss.p_for_window_dctcp(ss.window_dctcp(p)) == pytest.approx(p)


class TestSwitchover:
    """Equation (8)."""

    def test_low_bdp_is_creno(self):
        assert ss.cubic_operates_as_creno(window=20, rtt=0.01)

    def test_high_bdp_is_cubic(self):
        assert not ss.cubic_operates_as_creno(window=1000, rtt=0.1)

    def test_threshold_boundary(self):
        # W·R^1.5 = 3.5 exactly → not CReno (strict inequality).
        rtt = 0.1
        w = 3.5 / rtt ** 1.5
        assert not ss.cubic_operates_as_creno(w, rtt)
        assert ss.cubic_operates_as_creno(w * 0.99, rtt)

    def test_depends_on_both_w_and_r(self):
        # Same window, different RTT flips the mode.
        assert ss.cubic_operates_as_creno(window=100, rtt=0.01)
        assert not ss.cubic_operates_as_creno(window=100, rtt=0.2)


class TestCoupling:
    def test_equation13_equal_rate(self):
        """W_creno(pc) = W_dctcp(ps) exactly when pc = (ps/1.19)²."""
        ps = 0.2
        pc = ss.coupled_classic_probability(ps)
        assert ss.window_creno(pc) == pytest.approx(ss.window_dctcp(ps), rel=1e-3)

    def test_k_analytic_value(self):
        assert ss.k_analytic() == pytest.approx(1.19, abs=0.01)

    def test_deployed_k_two_makes_classic_weaker_signal(self):
        ps = 0.2
        pc2 = ss.coupled_classic_probability(ps, k=2.0)
        pc119 = ss.coupled_classic_probability(ps)
        assert pc2 < pc119  # larger k → gentler classic signal
