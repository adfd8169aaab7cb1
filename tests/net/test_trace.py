"""Tests for packet-event tracing."""


import pytest

from repro.aqm.base import AQM, Decision
from repro.net.queue import AQMQueue
from repro.net.trace import PacketTrace, TraceEvent
from repro.net.packet import ECN
from tests.conftest import make_packet


class DropEverySecond(AQM):
    def __init__(self):
        super().__init__()
        self._n = 0

    def on_enqueue(self, packet):
        self._n += 1
        return Decision.DROP if self._n % 2 == 0 else Decision.PASS


class MarkAll(AQM):
    def on_enqueue(self, packet):
        return Decision.MARK


class TestTracing:
    def test_enqueue_dequeue_sequence(self, sim):
        q = AQMQueue(sim, None, 10e6)
        trace = PacketTrace(q)
        q.enqueue(make_packet(seq=1))
        q.dequeue()
        kinds = [r.event for r in trace.records]
        assert kinds == [TraceEvent.ENQUEUE, TraceEvent.DEQUEUE]

    def test_aqm_drop_recorded(self, sim):
        q = AQMQueue(sim, DropEverySecond(), 10e6)
        trace = PacketTrace(q)
        q.enqueue(make_packet(seq=1))
        q.enqueue(make_packet(seq=2))
        assert trace.count(TraceEvent.AQM_DROP) == 1
        assert trace.count(TraceEvent.ENQUEUE) == 1

    def test_tail_drop_recorded(self, sim):
        q = AQMQueue(sim, None, 10e6, buffer_packets=1)
        trace = PacketTrace(q)
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        assert trace.count(TraceEvent.TAIL_DROP) == 1

    def test_ce_mark_recorded(self, sim):
        q = AQMQueue(sim, MarkAll(), 10e6)
        trace = PacketTrace(q)
        q.enqueue(make_packet(ecn=ECN.ECT0))
        assert trace.count(TraceEvent.CE_MARK) == 1
        assert trace.count(TraceEvent.ENQUEUE) == 1

    def test_timestamps(self, sim):
        q = AQMQueue(sim, None, 10e6)
        trace = PacketTrace(q)
        sim.schedule(1.5, lambda: q.enqueue(make_packet()))
        sim.run(2.0)
        assert trace.records[0].time == 1.5

    def test_flow_filter(self, sim):
        q = AQMQueue(sim, None, 10e6)
        trace = PacketTrace(q)
        q.enqueue(make_packet(flow_id=1))
        q.enqueue(make_packet(flow_id=2))
        assert len(trace.flow(1)) == 1

    def test_ordinals_number_arrivals_and_follow_the_packet(self, sim):
        q = AQMQueue(sim, DropEverySecond(), 10e6)
        trace = PacketTrace(q)
        for i in range(4):
            q.enqueue(make_packet(seq=i))
        q.dequeue()
        q.dequeue()
        assert [(r.event, r.seq, r.ordinal) for r in trace.records] == [
            (TraceEvent.ENQUEUE, 0, 0),
            (TraceEvent.AQM_DROP, 1, 1),
            (TraceEvent.ENQUEUE, 2, 2),
            (TraceEvent.AQM_DROP, 3, 3),
            (TraceEvent.DEQUEUE, 0, 0),
            (TraceEvent.DEQUEUE, 2, 2),
        ]

    def test_packet_queued_before_attach_dequeues_with_no_ordinal(self, sim):
        q = AQMQueue(sim, None, 10e6)
        q.enqueue(make_packet(seq=7))
        trace = PacketTrace(q)
        q.dequeue()
        assert [(r.event, r.ordinal) for r in trace.records] == [
            (TraceEvent.DEQUEUE, -1)
        ]

    def test_limit_bounds_memory(self, sim):
        q = AQMQueue(sim, None, 10e6)
        trace = PacketTrace(q, limit=3)
        for i in range(10):
            q.enqueue(make_packet(seq=i))
        assert len(trace) == 3
        assert trace.records[-1].seq == 9

    def test_invalid_limit_rejected(self, sim):
        q = AQMQueue(sim, None, 10e6)
        with pytest.raises(ValueError):
            PacketTrace(q, limit=0)

    def test_detach_restores(self, sim):
        q = AQMQueue(sim, None, 10e6)
        trace = PacketTrace(q)
        trace.detach()
        q.enqueue(make_packet())
        assert len(trace) == 0

    def test_end_to_end_fifo_order(self, sim, streams):
        """Dequeue order must equal enqueue order (FIFO) in a real run."""
        from repro.harness.topology import Dumbbell

        bed = Dumbbell(sim, streams, 10e6, None)
        trace = PacketTrace(bed.queue)
        bed.add_tcp_flow("reno", rtt=0.05, flow_size=50)
        sim.run(10.0)
        enq = [r.ordinal for r in trace.events(TraceEvent.ENQUEUE)]
        deq = [r.ordinal for r in trace.events(TraceEvent.DEQUEUE)]
        assert deq == enq[: len(deq)]
