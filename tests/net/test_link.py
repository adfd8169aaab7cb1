"""Unit tests for the serializing bottleneck link."""

import pytest

from repro.net.link import Link
from repro.net.node import CountingSink
from repro.net.queue import AQMQueue
from tests.conftest import make_packet


def make_link(sim, capacity=8e6, prop_delay=0.0, sink=None):
    q = AQMQueue(sim, None, capacity)
    sink = sink or CountingSink()
    link = Link(sim, q, capacity, sink=sink, prop_delay=prop_delay)
    return q, link, sink


class TestSerialization:
    def test_packet_delivered_after_serialization_time(self, sim):
        q, link, sink = make_link(sim, capacity=8e6)
        q.enqueue(make_packet(size=1000))  # 8000 bits / 8 Mb/s = 1 ms
        sim.run(0.0009)
        assert sink.packets == 0
        sim.run(0.0011)
        assert sink.packets == 1

    def test_back_to_back_packets_serialize_sequentially(self, sim):
        q, link, sink = make_link(sim, capacity=8e6)
        q.enqueue(make_packet(size=1000))
        q.enqueue(make_packet(size=1000))
        sim.run(0.0015)
        assert sink.packets == 1
        sim.run(0.0021)
        assert sink.packets == 2

    def test_propagation_delay_added(self, sim):
        q, link, sink = make_link(sim, capacity=8e6, prop_delay=0.010)
        q.enqueue(make_packet(size=1000))
        sim.run(0.010)
        assert sink.packets == 0
        sim.run(0.0111)
        assert sink.packets == 1

    def test_idle_link_restarts_on_arrival(self, sim):
        q, link, sink = make_link(sim, capacity=8e6)
        q.enqueue(make_packet(size=1000))
        sim.run(0.005)
        assert not link.busy
        sim.schedule(0.005, lambda: q.enqueue(make_packet(size=1000)))
        sim.run(0.02)
        assert sink.packets == 2

    def test_counters(self, sim):
        q, link, sink = make_link(sim, capacity=8e6)
        q.enqueue(make_packet(size=1000))
        q.enqueue(make_packet(size=500))
        sim.run(1.0)
        assert link.packets_sent == 2
        assert link.bytes_sent == 1500
        assert link.busy_time == pytest.approx((8000 + 4000) / 8e6)


class TestCapacityChange:
    def test_set_capacity_affects_next_packet(self, sim):
        q, link, sink = make_link(sim, capacity=8e6)
        link.set_capacity(16e6)
        q.enqueue(make_packet(size=1000))
        sim.run(0.00051)
        assert sink.packets == 1

    def test_set_capacity_updates_queue_estimator(self, sim):
        q, link, sink = make_link(sim, capacity=8e6)
        link.set_capacity(16e6)
        assert q.capacity_bps == 16e6
        assert q.queue_delay() == 0.0

    def test_invalid_capacity_rejected(self, sim):
        q, link, sink = make_link(sim)
        with pytest.raises(ValueError):
            link.set_capacity(0)

    def test_invalid_construction(self, sim):
        q = AQMQueue(sim, None, 1e6)
        with pytest.raises(ValueError):
            Link(sim, q, 0)
        with pytest.raises(ValueError):
            Link(sim, q, 1e6, prop_delay=-1)


class TestRouting:
    def test_router_overrides_sink(self, sim):
        q, link, default_sink = make_link(sim)
        special = CountingSink()
        link.set_router(lambda pkt: special if pkt.flow_id == 7 else default_sink)
        q.enqueue(make_packet(flow_id=7))
        q.enqueue(make_packet(flow_id=1))
        sim.run(1.0)
        assert special.packets == 1
        assert default_sink.packets == 1
