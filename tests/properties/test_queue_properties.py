"""Property-based tests for queue and link conservation invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm.fixed import FixedProbabilityAqm
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator


packet_sizes = st.integers(min_value=64, max_value=9000)


class TestQueueConservation:
    @given(
        sizes=st.lists(packet_sizes, min_size=1, max_size=60),
        buffer_packets=st.integers(min_value=1, max_value=30),
        ops=st.lists(st.booleans(), min_size=1, max_size=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_and_packet_accounting(self, sizes, buffer_packets, ops):
        """Under arbitrary interleavings of enqueue/dequeue, the byte and
        packet counters always equal the sum over resident packets, and
        arrivals = enqueued + dropped."""
        sim = Simulator()
        q = AQMQueue(sim, None, 10e6, buffer_packets=buffer_packets)
        resident = []
        size_iter = iter(sizes * ((len(ops) // len(sizes)) + 1))
        for do_enqueue in ops:
            if do_enqueue:
                pkt = Packet(flow_id=0, size=next(size_iter))
                if q.enqueue(pkt):
                    resident.append(pkt)
            else:
                out = q.dequeue()
                if resident:
                    assert out is resident.pop(0)
                else:
                    assert out is None
            assert q.packet_length() == len(resident)
            assert q.byte_length() == sum(p.size for p in resident)
        stats = q.stats
        assert stats.arrived == stats.enqueued + stats.tail_dropped
        assert stats.dequeued == stats.enqueued - len(resident)

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_aqm_drop_accounting(self, p, n, seed):
        sim = Simulator()
        q = AQMQueue(
            sim, FixedProbabilityAqm(p, random.Random(seed), ecn=False), 10e6
        )
        accepted = sum(q.enqueue(Packet(flow_id=0, size=1000)) for _ in range(n))
        assert q.stats.enqueued == accepted
        assert q.stats.aqm_dropped == n - accepted


class TestLinkConservation:
    @given(
        sizes=st.lists(packet_sizes, min_size=1, max_size=40),
        capacity_mbps=st.sampled_from([1.0, 10.0, 100.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_enqueued_bytes_eventually_delivered(self, sizes, capacity_mbps):
        sim = Simulator()
        q = AQMQueue(sim, None, capacity_mbps * 1e6)
        link = Link(sim, q, capacity_mbps * 1e6)
        delivered = []
        link.add_route(0, 0.0, delivered.append)
        for size in sizes:
            q.enqueue(Packet(flow_id=0, size=size))
        # Run long enough to drain everything.
        sim.run(sum(sizes) * 8 / (capacity_mbps * 1e6) + 1.0)
        assert [pkt.size for pkt in delivered] == sizes
        assert link.bytes_sent == sum(sizes)
        assert q.byte_length() == 0

    @given(sizes=st.lists(packet_sizes, min_size=2, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_busy_time_equals_serialization_total(self, sizes):
        sim = Simulator()
        capacity = 8e6
        q = AQMQueue(sim, None, capacity)
        link = Link(sim, q, capacity)
        for size in sizes:
            q.enqueue(Packet(flow_id=0, size=size))
        sim.run(sum(sizes) * 8 / capacity + 1.0)
        expected = sum(size * 8 / capacity for size in sizes)
        assert abs(link.busy_time - expected) < 1e-9
