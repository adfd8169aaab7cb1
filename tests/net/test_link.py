"""Unit tests for the serializing bottleneck link."""

import pytest

from repro.net.link import Link
from repro.net.queue import AQMQueue
from tests.conftest import make_packet


def make_link(sim, capacity=8e6):
    """A link whose flow 0 (``make_packet``'s default) is routed with no
    delay to the returned list."""
    q = AQMQueue(sim, None, capacity)
    link = Link(sim, q, capacity)
    arrived = []
    link.add_route(0, 0.0, arrived.append)
    return q, link, arrived


class TestSerialization:
    def test_packet_delivered_after_serialization_time(self, sim):
        q, link, arrived = make_link(sim, capacity=8e6)
        q.enqueue(make_packet(size=1000))  # 8000 bits / 8 Mb/s = 1 ms
        sim.run(0.0009)
        assert len(arrived) == 0
        sim.run(0.0011)
        assert len(arrived) == 1

    def test_back_to_back_packets_serialize_sequentially(self, sim):
        q, link, arrived = make_link(sim, capacity=8e6)
        q.enqueue(make_packet(size=1000))
        q.enqueue(make_packet(size=1000))
        sim.run(0.0015)
        assert len(arrived) == 1
        sim.run(0.0021)
        assert len(arrived) == 2

    def test_idle_link_restarts_on_arrival(self, sim):
        q, link, arrived = make_link(sim, capacity=8e6)
        q.enqueue(make_packet(size=1000))
        sim.run(0.005)
        assert not link.busy
        sim.schedule(0.005, lambda: q.enqueue(make_packet(size=1000)))
        sim.run(0.02)
        assert len(arrived) == 2

    def test_counters(self, sim):
        q, link, arrived = make_link(sim, capacity=8e6)
        q.enqueue(make_packet(size=1000))
        q.enqueue(make_packet(size=500))
        sim.run(1.0)
        assert link.packets_sent == 2
        assert link.bytes_sent == 1500
        assert link.busy_time == pytest.approx((8000 + 4000) / 8e6)


class TestCapacityChange:
    def test_set_capacity_affects_next_packet(self, sim):
        q, link, arrived = make_link(sim, capacity=8e6)
        link.set_capacity(16e6)
        q.enqueue(make_packet(size=1000))
        sim.run(0.00051)
        assert len(arrived) == 1

    def test_set_capacity_updates_queue_estimator(self, sim):
        q, link, _ = make_link(sim, capacity=8e6)
        link.set_capacity(16e6)
        assert q.capacity_bps == 16e6
        assert q.queue_delay() == 0.0

    def test_invalid_capacity_rejected(self, sim):
        q, link, _ = make_link(sim)
        with pytest.raises(ValueError):
            link.set_capacity(0)

    def test_nan_capacity_rejected(self, sim):
        q, link, _ = make_link(sim, capacity=8e6)
        with pytest.raises(ValueError):
            link.set_capacity(float("nan"))
        assert link.capacity_bps == q.capacity_bps == 8e6

    def test_invalid_construction(self, sim):
        q = AQMQueue(sim, None, 1e6)
        with pytest.raises(ValueError):
            Link(sim, q, 0)

    def test_nan_construction_rejected(self, sim):
        q = AQMQueue(sim, None, 1e6)
        with pytest.raises(ValueError):
            Link(sim, q, float("nan"))


class TestRouting:
    def test_flow_without_a_route_ends_at_the_link(self, sim):
        # A routed flow goes to its route; a flow with no route (UDP) is
        # counted as it is sent and goes nowhere, with no event of its own.
        q, link, arrived = make_link(sim)
        q.enqueue(make_packet(flow_id=0, size=1000))
        q.enqueue(make_packet(flow_id=1, size=500))
        sim.run(1.0)
        assert [pkt.flow_id for pkt in arrived] == [0]
        assert (link.packets_sent, link.bytes_sent) == (2, 1500)
        # Two completions and one routed delivery.
        assert sim.events_processed == 3

    def test_route_delay_runs_from_completion(self, sim):
        # 1000 B at 8 Mb/s completes at 1 ms; the route adds 10 ms.
        q, link, arrived = make_link(sim, capacity=8e6)
        special = []
        link.add_route(7, 0.010, special.append)
        assert link.routes[7] == (0.010, special.append)
        q.enqueue(make_packet(flow_id=7, size=1000))
        sim.run(0.0109)
        assert special == []
        sim.run(0.0111)
        assert len(special) == 1
        assert arrived == []

    @pytest.mark.parametrize("delay", [-0.001, float("nan"), float("inf")])
    def test_bad_route_delay_rejected_at_registration(self, sim, delay):
        # The completion pushes the delivery onto the heap with no check
        # of its own (post's is bypassed), so registration checks it.
        q, link, _ = make_link(sim)
        with pytest.raises(ValueError, match="route delay must be non-negative"):
            link.add_route(7, delay, lambda pkt: None)
        assert 7 not in link.routes
