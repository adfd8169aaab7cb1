"""Unit tests for the AQM-managed FIFO queue, its delay estimate, and
PIE's measured departure-rate estimator behind it."""

import random

import pytest

from repro.aqm.base import AQM, Decision
from repro.aqm.pie import DQ_INITIAL_RATE, DQ_THRESHOLD, PieAqm
from repro.net.link import Link
from repro.net.packet import ECN
from repro.net.queue import AQMQueue
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
    """The queue binds its AQM's departure hook once, at construction:
    ``None`` unless the AQM observes departures (PIE's measured rate
    estimator), then one call per dequeue."""

    def test_no_hook_without_dq_rate_estimator(self, sim):
        for aqm in (None, PieAqm()):
            q = AQMQueue(sim, aqm, 10e6)
            assert q._on_dequeue is None

    def test_dq_rate_estimator_hook_runs_once_per_dequeue(self, sim):
        aqm = PieAqm(dq_rate_estimator=True)
        calls = []
        measure = aqm.on_dequeue

        def counted(packet, now):
            calls.append(packet)
            measure(packet, now)

        aqm.on_dequeue = counted
        q = AQMQueue(sim, aqm, 10e6)
        Link(sim, q, 10e6)
        for i in range(40):
            q.enqueue(make_packet(seq=i, size=1500))
        sim.run(0.100)
        assert q.stats.dequeued == 40
        assert [p.seq for p in calls] == list(range(40))

    def test_departure_rate_estimator_behind_queue_measures_the_link(self, sim):
        aqm = PieAqm(dq_rate_estimator=True)
        q = AQMQueue(sim, aqm, 2e6)
        Link(sim, q, 2e6)
        for _ in range(40):
            q.enqueue(make_packet(size=1500))
        # 1500 B take 6 ms at 2 Mb/s.  Measurement starts at the second
        # departure (6 ms) and its first sample needs 11 more packets
        # (16.5 kB), so it completes at 72 ms.
        sim.run(0.071)
        assert aqm.dq_rate == DQ_INITIAL_RATE
        sim.run(0.073)
        assert aqm.dq_rate == pytest.approx(6e6)  # EWMA of 10 and 2 Mb/s
        sim.run(1.0)
        assert q.stats.dequeued == 40
        # Two more busy drains, each sampled at the link's 2 Mb/s.
        assert aqm.dq_rate == pytest.approx(3e6)


class TestCapacityDelayEstimator:
    """The queue's own delay estimate: backlog over the link capacity."""

    def test_delay_is_backlog_over_rate(self, sim):
        q = AQMQueue(sim, None, 10e6)
        for _ in range(5):
            q.enqueue(make_packet(size=2500))
        # 12500 bytes = 100 kbit at 10 Mb/s = 10 ms.
        assert q.queue_delay() == pytest.approx(0.010)

    def test_zero_backlog_zero_delay(self, sim):
        assert AQMQueue(sim, None, 10e6).queue_delay() == 0.0

    def test_capacity_change_affects_delay(self, sim):
        q = AQMQueue(sim, None, 10e6)
        for _ in range(5):
            q.enqueue(make_packet(size=2500))
        q.set_capacity(20e6)
        assert q.queue_delay() == pytest.approx(0.005)

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            AQMQueue(sim, None, 0)
        with pytest.raises(ValueError):
            AQMQueue(sim, None, 10e6).set_capacity(-1)


class TestDepartureRateEstimator:
    """PIE's measured departure-rate estimator (RFC 8033 §5.1), driven
    through a real queue and link."""

    def _pie_behind_link(self, sim, capacity_bps):
        aqm = PieAqm(dq_rate_estimator=True, rng=random.Random(1))
        queue = AQMQueue(sim, aqm, capacity_bps)
        Link(sim, queue, capacity_bps)
        return aqm, queue

    def test_initial_rate_used_before_measurement(self, sim):
        aqm = PieAqm(dq_rate_estimator=True, rng=random.Random(1))
        q = AQMQueue(sim, aqm, 1e6)
        for _ in range(5):
            q.enqueue(make_packet(size=2500))
        aqm.update()
        # The queue's exact delay (12 500 B at 1 Mb/s, 100 ms) is
        # ignored: over the 10 Mb/s stand-in rate it is 10 ms.
        assert aqm._qdelay == pytest.approx(0.010)

    def test_rate_converges_to_actual_drain(self, sim):
        aqm, queue = self._pie_behind_link(sim, 2e6)
        for _ in range(100):
            queue.enqueue(make_packet(size=1500))
        sim.run(1.0)
        assert queue.stats.dequeued == 100
        assert aqm.dq_rate == pytest.approx(2e6, rel=0.05)

    def test_no_measurement_below_threshold(self, sim):
        aqm, queue = self._pie_behind_link(sim, 2e6)
        for _ in range(DQ_THRESHOLD // 1500):
            queue.enqueue(make_packet(size=1500))
        sim.run(1.0)
        assert queue.stats.dequeued == DQ_THRESHOLD // 1500
        assert aqm.dq_rate == DQ_INITIAL_RATE

    @pytest.mark.parametrize("gap", [0.1, 1.0])
    def test_idle_gap_between_bursts_is_not_sampled(self, sim, gap):
        """Two 21 000 B bursts separated by an idle gap: every sample
        times a busy drain, so the estimate stays at the 10 Mb/s line
        rate rather than averaging the gap in."""
        aqm, queue = self._pie_behind_link(sim, 10e6)

        def burst():
            for _ in range(14):
                queue.enqueue(make_packet(size=1500))

        burst()
        sim.at(gap, burst)
        sim.run(gap + 0.1)
        assert queue.stats.dequeued == 28
        assert aqm.dq_rate == pytest.approx(10e6, rel=0.05)
