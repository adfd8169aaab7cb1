"""Edge-case tests for the TCP sender machinery."""

import pytest

from repro.tcp.cubic import CubicSender
from tests.tcp.helpers import Loopback, drop_seqs, mark_seqs


class TestTinyFlows:
    def test_single_segment_flow(self, sim):
        done = []
        lb = Loopback(sim, rtt=0.1, flow_size=1, on_complete=done.append)
        lb.sender.start(0.0)
        sim.run(2.0)
        assert lb.sender.completed
        assert done == [pytest.approx(0.1, abs=0.02)]

    def test_single_segment_lost_then_recovered(self, sim):
        lb = Loopback(sim, rtt=0.1, flow_size=1, interceptor=drop_seqs(0))
        lb.sender.start(0.0)
        sim.run(10.0)
        # Too few dupacks possible: recovery must come from the RTO.
        assert lb.sender.completed
        assert lb.sender.timeouts >= 1

    def test_two_segment_flow_with_second_lost(self, sim):
        lb = Loopback(sim, rtt=0.1, flow_size=2, interceptor=drop_seqs(1))
        lb.sender.start(0.0)
        sim.run(10.0)
        assert lb.sender.completed
        assert lb.receiver.rcv_next == 2


class TestRttEstimation:
    def test_srtt_converges_after_first_sample(self, sim):
        lb = Loopback(sim, rtt=0.08, flow_size=100)
        lb.sender.start(0.0)
        sim.run(5.0)
        assert lb.sender.srtt == pytest.approx(0.08, rel=0.05)
        assert lb.sender.rto >= lb.sender.srtt

    def test_rttvar_shrinks_on_steady_path(self, sim):
        lb = Loopback(sim, rtt=0.08, flow_size=300)
        lb.sender.start(0.0)
        sim.run(10.0)
        assert lb.sender.rttvar < 0.02


class TestEcnEdgeCases:
    def test_ece_during_recovery_no_double_reduction(self, sim):
        """A mark and a loss inside the same window must not stack two
        reductions beyond the CC's intent (loss enters recovery; ECE on
        later dupacks is the same congestion event window)."""
        lb = Loopback(
            sim, rtt=0.1, ecn_mode="classic", flow_size=300,
            interceptor=lambda pkt: (
                "drop" if (not pkt.is_retransmit and pkt.seq == 50)
                else ("mark" if (not pkt.is_retransmit and pkt.seq == 52) else "forward")
            ),
        )
        lb.sender.start(0.0)
        sim.run(15.0)
        assert lb.sender.completed
        total_reductions = lb.sender.loss_reductions + lb.sender.ecn_reductions
        assert total_reductions <= 2

    def test_cwr_flag_sent_after_ecn_reduction(self, sim):
        seen_cwr = []
        lb = Loopback(
            sim, rtt=0.1, ecn_mode="classic", flow_size=200,
            interceptor=mark_seqs(40),
        )
        original = lb.receiver.deliver
        lb.receiver.deliver = lambda pkt: (seen_cwr.append(pkt.cwr), original(pkt))
        lb.sender.start(0.0)
        sim.run(10.0)
        assert any(seen_cwr)
        # Exactly one CWR per reduction.
        assert sum(seen_cwr) == lb.sender.ecn_reductions


class TestCubicRegions:
    def test_concave_plateau_growth_is_slow(self, sim):
        s = CubicSender(sim, 0, transmit=lambda p: None)
        s.srtt = 0.1
        s.ssthresh = 10.0
        s._w_max = 1000.0
        s.cwnd = 500.0
        s._epoch_start = -1.0
        before = s.cwnd
        s.ca_increase(1)
        # Far below w_max the cubic target is above cwnd: growth happens,
        # but bounded by the 1.5/ACK cap.
        assert before < s.cwnd <= before + 1.5

    def test_near_wmax_growth_nearly_flat(self, sim):
        s = CubicSender(sim, 0, transmit=lambda p: None)
        s.srtt = 0.01
        s.ssthresh = 10.0
        s._w_max = 100.0
        s.cwnd = 100.0
        s._epoch_start = sim.now  # K computed so plateau is at w_max
        s._origin = 100.0
        s._k = 0.0
        before = s.cwnd
        s.ca_increase(1)
        assert s.cwnd - before < 0.5


class TestStopSemantics:
    def test_stop_marks_completed_and_freezes_counters(self, sim):
        lb = Loopback(sim, rtt=0.1)
        lb.sender.start(0.0)
        sim.run(1.0)
        lb.sender.stop()
        sent = lb.sender.segments_sent
        sim.run(5.0)
        assert lb.sender.completed
        assert lb.sender.segments_sent == sent

    def test_stop_before_start_is_safe(self, sim):
        lb = Loopback(sim, rtt=0.1)
        lb.sender.stop()
        assert lb.sender.completed
