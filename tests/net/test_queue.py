"""Unit tests for the AQM-managed FIFO queue and its delay estimators."""

import pytest

from repro.aqm.base import AQM, Decision
from repro.aqm.codel import CodelAqm
from repro.net.link import Link
from repro.net.packet import ECN
from repro.net.queue import (
    AQMQueue,
    CapacityDelayEstimator,
    DepartureRateEstimator,
)
from tests.conftest import make_packet


class AlwaysDrop(AQM):
    def on_enqueue(self, packet):
        return Decision.DROP


class AlwaysMark(AQM):
    def on_enqueue(self, packet):
        return Decision.MARK


class TestFifoBasics:
    def test_enqueue_dequeue_fifo_order(self, sim):
        q = AQMQueue(sim, None, 10e6)
        pkts = [make_packet(seq=i) for i in range(5)]
        for p in pkts:
            q.enqueue(p)
        out = [q.dequeue() for _ in range(5)]
        assert [p.seq for p in out] == [0, 1, 2, 3, 4]

    def test_dequeue_empty_returns_none(self, sim):
        q = AQMQueue(sim, None, 10e6)
        assert q.dequeue() is None

    def test_byte_and_packet_lengths(self, sim):
        q = AQMQueue(sim, None, 10e6)
        q.enqueue(make_packet(size=1000))
        q.enqueue(make_packet(size=500))
        assert q.byte_length() == 1500
        assert q.packet_length() == 2
        q.dequeue()
        assert q.byte_length() == 500
        assert q.packet_length() == 1

    def test_len_matches_packet_length(self, sim):
        q = AQMQueue(sim, None, 10e6)
        q.enqueue(make_packet())
        assert len(q) == 1

    def test_enqueue_timestamps_packets(self, sim):
        q = AQMQueue(sim, None, 10e6)
        sim.schedule(2.5, lambda: q.enqueue(make_packet()))
        sim.run(3.0)
        pkt = q.dequeue()
        assert pkt.enqueue_time == 2.5


class TestTailDrop:
    def test_buffer_limit_enforced(self, sim):
        q = AQMQueue(sim, None, 10e6, buffer_packets=3)
        assert all(q.enqueue(make_packet()) for _ in range(3))
        assert q.enqueue(make_packet()) is False
        assert q.stats.tail_dropped == 1

    def test_invalid_buffer_rejected(self, sim):
        with pytest.raises(ValueError):
            AQMQueue(sim, None, 10e6, buffer_packets=0)

    def test_space_freed_after_dequeue(self, sim):
        q = AQMQueue(sim, None, 10e6, buffer_packets=1)
        q.enqueue(make_packet())
        assert q.enqueue(make_packet()) is False
        q.dequeue()
        assert q.enqueue(make_packet()) is True


class TestAqmIntegration:
    def test_aqm_drop_refuses_packet(self, sim):
        q = AQMQueue(sim, AlwaysDrop(), 10e6)
        assert q.enqueue(make_packet()) is False
        assert q.stats.aqm_dropped == 1
        assert len(q) == 0

    def test_aqm_mark_sets_ce(self, sim):
        q = AQMQueue(sim, AlwaysMark(), 10e6)
        assert q.enqueue(make_packet(ecn=ECN.ECT0)) is True
        assert q.dequeue().ecn is ECN.CE
        assert q.stats.ce_marked == 1

    def test_aqm_attach_called(self, sim):
        aqm = AlwaysDrop()
        q = AQMQueue(sim, aqm, 10e6)
        assert aqm.queue is q
        assert aqm.sim is sim

    def test_stats_counters(self, sim):
        q = AQMQueue(sim, None, 10e6)
        q.enqueue(make_packet(size=100))
        q.enqueue(make_packet(size=200))
        q.dequeue()
        s = q.stats
        assert s.arrived == 2
        assert s.enqueued == 2
        assert s.dequeued == 1
        assert s.bytes_arrived == 300
        assert s.bytes_dequeued == 100

    def test_wakeup_fires_on_enqueue(self, sim):
        q = AQMQueue(sim, None, 10e6)
        calls = []
        q.set_wakeup(lambda: calls.append(True))
        q.enqueue(make_packet())
        assert calls == [True]

    def test_wakeup_fires_only_when_queue_becomes_non_empty(self, sim):
        q = AQMQueue(sim, None, 10e6)
        calls = []
        q.set_wakeup(lambda: calls.append(len(q)))
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        q.dequeue()
        q.dequeue()
        q.enqueue(make_packet())
        assert calls == [1, 1]

    def test_sojourn_callback(self, sim):
        seen = []
        q = AQMQueue(
            sim, None, 10e6, on_sojourn=lambda t, s, p: seen.append((t, s))
        )
        q.enqueue(make_packet())
        sim.schedule(0.5, q.dequeue)
        sim.run(1.0)
        assert seen == [(0.5, 0.5)]


class TestDepartureHooks:
    """The queue binds its estimator's and AQM's departure hooks once, at
    construction; these drive them only through enqueue and dequeue."""

    def test_codel_behind_queue_engages_under_standing_sojourn(self, sim):
        aqm = CodelAqm(target=0.005, interval=0.050)
        q = AQMQueue(sim, aqm, 10e6)
        for _ in range(5):
            q.enqueue(make_packet(ecn=ECN.ECT0))

        def tick():
            # One in, one out every 5 ms: each packet waits 25 ms.  ECT
            # packets are marked, not dropped, so the backlog stands.
            q.enqueue(make_packet(ecn=ECN.ECT0))
            q.dequeue()

        sim.every(0.005, tick)
        sim.run(0.040)
        assert not aqm.dropping  # over target, but for less than interval
        sim.run(0.500)
        assert aqm.dropping
        assert q.stats.ce_marked > 0
        assert len(q) == 5

    def test_departure_rate_estimator_behind_queue_measures_the_link(self, sim):
        est = DepartureRateEstimator(initial_rate_bps=1e6, dq_threshold=10_000)
        q = AQMQueue(sim, None, 10e6, estimator=est)
        Link(sim, q, 10e6)
        for _ in range(40):
            q.enqueue(make_packet(size=1500))
        # 1500 B take 1.2 ms at 10 Mb/s.  Measurement starts at the
        # second departure (1.2 ms) and its first sample needs 7 more
        # packets (10.5 kB), so it completes at 9.6 ms.
        sim.run(0.009)
        assert est.rate_bps == 1e6
        sim.run(0.010)
        assert est.rate_bps == pytest.approx(5.5e6)  # EWMA of 1 and 10 Mb/s
        sim.run(0.100)
        assert q.stats.dequeued == 40
        assert est.rate_bps == pytest.approx(10e6, rel=0.1)


class TestCapacityDelayEstimator:
    def test_delay_is_backlog_over_rate(self):
        est = CapacityDelayEstimator(10e6)
        # 12500 bytes = 100 kbit at 10 Mb/s = 10 ms.
        assert est.delay(12500) == pytest.approx(0.010)

    def test_zero_backlog_zero_delay(self):
        assert CapacityDelayEstimator(10e6).delay(0) == 0.0

    def test_capacity_change_affects_delay(self):
        est = CapacityDelayEstimator(10e6)
        est.set_capacity(20e6)
        assert est.delay(12500) == pytest.approx(0.005)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacityDelayEstimator(0)
        with pytest.raises(ValueError):
            CapacityDelayEstimator(10e6).set_capacity(-1)


class TestDepartureRateEstimator:
    def test_initial_rate_used_before_measurement(self):
        est = DepartureRateEstimator(initial_rate_bps=8e6)
        assert est.delay(1000) == pytest.approx(1000 * 8 / 8e6)

    def test_rate_converges_to_actual_drain(self):
        est = DepartureRateEstimator(initial_rate_bps=1e6, dq_threshold=10_000)
        # Drain 100 kB at exactly 10 Mb/s: 1250 bytes per ms.
        now = 0.0
        for _ in range(200):
            est.observe_backlog(50_000)
            est.on_dequeue(1250, now)
            now += 0.001
        assert est.rate_bps == pytest.approx(10e6, rel=0.05)

    def test_no_measurement_below_threshold(self):
        est = DepartureRateEstimator(initial_rate_bps=1e6, dq_threshold=10_000)
        est.observe_backlog(100)
        est.on_dequeue(1250, 0.0)
        est.on_dequeue(1250, 0.001)
        assert est.rate_bps == 1e6

    def test_invalid_initial_rate_rejected(self):
        with pytest.raises(ValueError):
            DepartureRateEstimator(initial_rate_bps=0)

    def test_set_capacity_is_noop(self):
        est = DepartureRateEstimator(initial_rate_bps=5e6)
        est.set_capacity(50e6)
        assert est.rate_bps == 5e6
