"""Unit tests for the constant-bit-rate UDP source."""

import pytest

from repro.net.packet import ECN
from repro.traffic.udp import UdpSource


class TestUdpSource:
    def test_rate_accuracy(self, sim):
        sent_bytes = []
        src = UdpSource(sim, 0, transmit=lambda p: sent_bytes.append(p.size),
                        rate_bps=6e6)
        src.start(0.0)
        sim.run(10.0)
        assert sum(sent_bytes) * 8 / 10.0 == pytest.approx(6e6, rel=0.01)

    def test_even_spacing(self, sim):
        times = []
        src = UdpSource(sim, 0, transmit=lambda p: times.append(sim.now),
                        rate_bps=1.2e6, packet_size=1500)
        src.start(0.0)
        sim.run(1.0)
        gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert len(gaps) == 1  # perfectly periodic

    def test_start_and_until(self, sim):
        count = []
        src = UdpSource(sim, 0, transmit=lambda p: count.append(sim.now),
                        rate_bps=1e6)
        src.start(2.0, until=4.0)
        sim.run(10.0)
        assert all(2.0 <= t < 4.01 for t in count)

    def test_stop(self, sim):
        count = []
        src = UdpSource(sim, 0, transmit=lambda p: count.append(1), rate_bps=1e6)
        src.start(0.0, until=1.0)
        sim.run(5.0)
        n_at_stop = len(count)
        assert n_at_stop == pytest.approx(1e6 / (1500 * 8), rel=0.05)

    def test_default_not_ect(self, sim):
        pkts = []
        src = UdpSource(sim, 0, transmit=pkts.append, rate_bps=1e6)
        src.start(0.0)
        sim.run(0.1)
        assert all(p.ecn is ECN.NOT_ECT for p in pkts)

    def test_invalid_params_rejected(self, sim):
        with pytest.raises(ValueError):
            UdpSource(sim, 0, transmit=lambda p: None, rate_bps=0)
        with pytest.raises(ValueError):
            UdpSource(sim, 0, transmit=lambda p: None, rate_bps=1e6, packet_size=0)
