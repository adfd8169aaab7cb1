"""Unit tests for the probability coupling law (equations 13–14).

Equation (14) is coded once, as
:func:`repro.analysis.steady_state.coupled_classic_probability` (the
copy the Appendix A claims read); the deployed factor lives in
:mod:`repro.core.coupling`.
"""


import pytest

from repro.analysis import steady_state as ss
from repro.core.coupling import K_DEPLOYED


class TestConstants:
    def test_analytic_k_is_2_over_1_68(self):
        assert ss.k_analytic() == 2.0 / 1.68
        assert ss.k_analytic() == pytest.approx(1.19, abs=0.01)

    def test_deployed_k_is_two(self):
        assert K_DEPLOYED == 2.0


class TestEquation14:
    def test_classic_from_scalable(self):
        assert ss.coupled_classic_probability(0.5, k=2.0) == pytest.approx(0.0625)

    def test_identity_at_k_one(self):
        assert ss.coupled_classic_probability(0.3, k=1.0) == pytest.approx(0.09)

    def test_round_trip(self):
        # ps -> pc (eq 14 at the analytic k) -> the CReno window (eq 7)
        # is DCTCP's window at ps (eq 11): equal rates.
        for ps in (0.01, 0.1, 0.42):
            pc = ss.coupled_classic_probability(ps)
            assert ss.window_creno(pc) == pytest.approx(ss.window_dctcp(ps))

    def test_monotone(self):
        values = [ss.coupled_classic_probability(p / 10, k=2.0) for p in range(1, 11)]
        assert values == sorted(values)

    def test_classic_always_leq_scalable(self):
        # With k ≥ 1 and ps ≤ 1, the classic probability never exceeds ps.
        for i in range(1, 101):
            ps = i / 100
            assert ss.coupled_classic_probability(ps, k=2.0) <= ps

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            ss.coupled_classic_probability(bad)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            ss.coupled_classic_probability(0.5, k=0)
