"""Unit tests for Cubic / CReno / ECN-Cubic."""

import pytest

from repro.tcp.cubic import CUBIC_BETA, CubicSender, EcnCubicSender
from tests.tcp.helpers import Loopback, drop_seqs, mark_seqs


class TestReductionFactor:
    def test_beta_is_point_seven(self, sim):
        lb = Loopback(sim, sender_cls=CubicSender, rtt=0.1)
        assert lb.sender.reduction_factor("loss") == pytest.approx(CUBIC_BETA)
        assert lb.sender.reduction_factor("ecn") == pytest.approx(CUBIC_BETA)

    def test_loss_cuts_by_point_seven(self, sim):
        lb = Loopback(
            sim, sender_cls=CubicSender, rtt=0.1, flow_size=500,
            interceptor=drop_seqs(60),
        )
        cwnds = []
        sim.every(0.01, lambda: cwnds.append(lb.sender.cwnd))
        lb.sender.start(0.0)
        sim.run(10.0)
        assert lb.sender.loss_reductions == 1
        assert lb.sender.completed


class TestCubicGrowth:
    def test_epoch_resets_on_congestion(self, sim):
        lb = Loopback(
            sim, sender_cls=CubicSender, rtt=0.1, interceptor=drop_seqs(60)
        )
        lb.sender.start(0.0)
        sim.run(3.0)
        assert lb.sender._w_max > 0

    def test_fast_convergence_lowers_wmax(self, sim):
        lb = Loopback(sim, sender_cls=CubicSender, rtt=0.1)
        s = lb.sender
        s._w_max = 100.0
        s.cwnd = 50.0
        s.on_congestion_event("loss")
        assert s._w_max == pytest.approx(50.0 * (2 - CUBIC_BETA) / 2)

    def test_no_fast_convergence_keeps_cwnd_as_wmax(self, sim):
        lb = Loopback(
            sim, sender_cls=CubicSender, rtt=0.1, fast_convergence=False
        )
        s = lb.sender
        s._w_max = 100.0
        s.cwnd = 50.0
        s.on_congestion_event("loss")
        assert s._w_max == 50.0

    def test_window_grows_in_congestion_avoidance(self, sim):
        lb = Loopback(sim, sender_cls=CubicSender, rtt=0.05)
        s = lb.sender
        s.ssthresh = 10  # force CA quickly
        lb.sender.start(0.0)
        sim.run(2.0)
        assert s.cwnd > 10

    def test_invalid_friendly_ai_rejected(self, sim):
        with pytest.raises(ValueError):
            CubicSender(sim, 0, transmit=lambda p: None, friendly_ai=0)


class TestSwitchover:
    """Equation (8): Cubic runs as CReno iff W·R^{3/2} < 3.5.  The
    sender's TCP-friendly region agrees on either side of the threshold
    across the epoch that follows a cut from W."""

    @staticmethod
    def _modes_after_cut(sim, window, rtt):
        s = Loopback(sim, sender_cls=CubicSender, rtt=rtt).sender
        s.srtt = rtt
        s.cwnd = window
        s.on_congestion_event("loss")
        s.cwnd = window * CUBIC_BETA
        s.ca_increase(1)
        modes = [s.in_creno_mode]
        # Then at ten instants until the cubic curve regains W.
        for i in range(1, 11):
            sim.run(i * s._k / 10)
            s.ca_increase(1)
            modes.append(s.in_creno_mode)
        return modes

    def test_small_window_short_rtt_is_creno(self, sim):
        # W·R^1.5 = 20 · 0.01^1.5 = 0.02 < 3.5
        assert all(self._modes_after_cut(sim, window=20, rtt=0.01))

    def test_large_window_long_rtt_is_cubic(self, sim):
        # W·R^1.5 = 500 · 0.1^1.5 ≈ 15.8 > 3.5
        assert not any(self._modes_after_cut(sim, window=500, rtt=0.1))


class TestEcnCubic:
    def test_defaults_to_classic_ecn(self, sim):
        lb = Loopback(sim, sender_cls=EcnCubicSender, rtt=0.1, ecn_mode="classic")
        assert lb.sender.ecn_mode == "classic"

    def test_rejects_non_classic_mode(self, sim):
        with pytest.raises(ValueError):
            EcnCubicSender(sim, 0, transmit=lambda p: None, ecn_mode="off")

    def test_mark_reduces_without_retransmit(self, sim):
        lb = Loopback(
            sim, sender_cls=EcnCubicSender, rtt=0.1, ecn_mode="classic",
            flow_size=300, interceptor=mark_seqs(60),
        )
        lb.sender.start(0.0)
        sim.run(10.0)
        assert lb.sender.completed
        assert lb.sender.ecn_reductions == 1
        assert lb.sender.retransmits == 0
