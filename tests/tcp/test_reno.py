"""Unit tests for Reno specifics (most behaviour is covered in
test_base_sender; these pin the AIMD constants)."""

import pytest

from repro.core.pi2 import Pi2Aqm
from repro.harness.topology import Dumbbell
from repro.tcp.reno import RenoSender
from tests.tcp.helpers import Loopback


class TestRenoConstants:
    def test_loss_beta_half(self, sim):
        s = RenoSender(sim, 0, transmit=lambda p: None)
        assert s.reduction_factor("loss") == 0.5

    def test_ecn_beta_half(self, sim):
        s = RenoSender(sim, 0, transmit=lambda p: None)
        assert s.reduction_factor("ecn") == 0.5

    def test_ca_adds_one_per_rtt(self, sim):
        s = RenoSender(sim, 0, transmit=lambda p: None)
        s.cwnd = 10.0
        s.ssthresh = 10.0
        for _ in range(10):  # ten ACKs of one segment = one window's worth
            s.ca_increase(1)
        assert s.cwnd == pytest.approx(11.0, rel=0.01)

    def test_long_run_reaches_bdp(self, sim):
        lb = Loopback(sim, sender_cls=RenoSender, rtt=0.05, flow_size=2000)
        lb.sender.start(0.0)
        sim.run(30.0)
        assert lb.sender.completed
        assert lb.sender.timeouts == 0


class TestRenoUnderAqm:
    def test_sawtooth_under_pi2(self, sim, streams):
        """Under an AQM a Classic flow's cwnd goes up and down (the
        sawtooth the paper's Figure 1 sketches)."""
        bed = Dumbbell(sim, streams, 10e6, Pi2Aqm(rng=streams.stream("aqm")))
        bed.add_tcp_flow("reno", rtt=0.05)
        sender = bed.senders[0]
        samples = []
        sim.every(0.2, lambda: samples.append((sim.now, sender.cwnd)))
        sim.run(30.0)
        values = [cwnd for t, cwnd in samples if 10.0 <= t <= 30.0]
        rises = sum(b > a for a, b in zip(values, values[1:]))
        falls = sum(b < a for a, b in zip(values, values[1:]))
        assert rises > 5
        assert falls > 2
