"""Unit tests for the DCTCP sender."""

import pytest

from repro.net.packet import ECN
from repro.tcp.dctcp import DCTCP_GAIN, DctcpSender
from tests.tcp.helpers import Loopback, drop_seqs


class TestConfiguration:
    def test_defaults_to_scalable_mode(self, sim):
        s = DctcpSender(sim, 0, transmit=lambda p: None)
        assert s.ecn_mode == "scalable"

    def test_rejects_other_modes(self, sim):
        with pytest.raises(ValueError):
            DctcpSender(sim, 0, transmit=lambda p: None, ecn_mode="classic")

    def test_invalid_gain_rejected(self, sim):
        with pytest.raises(ValueError):
            DctcpSender(sim, 0, transmit=lambda p: None, gain=0.0)

    def test_alpha_starts_at_one(self, sim):
        assert DctcpSender(sim, 0, transmit=lambda p: None).alpha == 1.0

    def test_data_packets_carry_ect1(self, sim):
        seen = []
        lb = Loopback(
            sim, sender_cls=DctcpSender, rtt=0.1, ecn_mode="scalable", flow_size=20
        )
        original = lb.receiver.deliver
        lb.receiver.deliver = lambda pkt: (seen.append(pkt.ecn), original(pkt))
        lb.sender.start(0.0)
        sim.run(5.0)
        assert seen and all(e is ECN.ECT1 for e in seen)


class TestAlphaDynamics:
    def test_alpha_decays_without_marks(self, sim):
        s = DctcpSender(sim, 0, transmit=lambda p: None)
        for _ in range(20):
            s.on_round_end(acked=10, marked=0)
        # No marks at all: α ← (1−g)·α each round, decaying from 1.
        assert s.alpha == pytest.approx((1 - DCTCP_GAIN) ** 20)
        assert s.ecn_reductions == 0

    def test_alpha_tracks_marked_fraction(self, sim):
        s = DctcpSender(sim, 0, transmit=lambda p: None)
        s.alpha = 0.0
        for _ in range(400):
            s.on_round_end(acked=10, marked=1)  # F = 0.1
        assert s.alpha == pytest.approx(0.1, rel=0.05)

    def test_alpha_update_uses_gain(self, sim):
        s = DctcpSender(sim, 0, transmit=lambda p: None)
        s.alpha = 0.0
        s.on_round_end(acked=10, marked=10)
        assert s.alpha == pytest.approx(DCTCP_GAIN)

    def test_empty_round_is_ignored(self, sim):
        s = DctcpSender(sim, 0, transmit=lambda p: None)
        before = s.alpha
        s.on_round_end(acked=0, marked=0)
        assert s.alpha == before


class TestWindowReduction:
    def test_marked_round_reduces_by_alpha_half(self, sim):
        s = DctcpSender(sim, 0, transmit=lambda p: None)
        s.cwnd = 100.0
        s.ssthresh = 100.0
        s.alpha = 0.5
        s.on_round_end(acked=10, marked=5)
        # alpha updated first, then cwnd *= (1 - alpha/2)
        assert s.cwnd == pytest.approx(100.0 * (1 - s.alpha / 2))

    def test_reduction_exits_slow_start(self, sim):
        s = DctcpSender(sim, 0, transmit=lambda p: None)
        s.cwnd = 100.0
        s.on_round_end(acked=10, marked=5)
        assert s.ssthresh == s.cwnd

    def test_unmarked_round_no_reduction(self, sim):
        s = DctcpSender(sim, 0, transmit=lambda p: None)
        s.cwnd = 100.0
        s.ssthresh = 50.0
        s.on_round_end(acked=10, marked=0)
        assert s.cwnd == 100.0

    def test_loss_still_halves(self, sim):
        lb = Loopback(
            sim, sender_cls=DctcpSender, rtt=0.1, ecn_mode="scalable",
            flow_size=300, interceptor=drop_seqs(60),
        )
        lb.sender.start(0.0)
        sim.run(10.0)
        assert lb.sender.completed
        assert lb.sender.loss_reductions == 1
