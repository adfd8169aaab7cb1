"""Link timing: delivery times and accounting.

Every transmission completion and every routed delivery is one pushed
engine event, so each callback fires at exactly the simulated time the
packet's serialization and its route's delay dictate.  These tests pin
those times at the unit level — the end-to-end ``digest()`` gates live
in ``tests/harness/test_digest_regression.py``.
"""

import pytest

from repro.net.link import Link
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from tests.conftest import make_packet


class TimedReceiver:
    """Records the simulated time of every delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.times = []

    def deliver(self, packet):
        self.times.append(self.sim.now)


def make_link(sim, capacity=8e6, delay=0.0, routed=True):
    """A link whose flow 0 is routed ``delay`` to a timed receiver (or,
    with ``routed=False``, ends at the link)."""
    q = AQMQueue(sim, None, capacity)
    receiver = TimedReceiver(sim)
    link = Link(sim, q, capacity)
    if routed:
        link.add_route(0, delay, receiver.deliver)
    return q, link, receiver


def run_burst(n=10, capacity=8e6, delay=0.0, routed=True, until=1.0):
    """Enqueue ``n`` back-to-back packets and run; returns (sim, link, receiver)."""
    sim = Simulator()
    q, link, receiver = make_link(sim, capacity=capacity, delay=delay, routed=routed)
    for _ in range(n):
        q.enqueue(make_packet(size=1000))  # 1 ms each at 8 Mb/s
    sim.run(until)
    return sim, link, receiver


class TestDeliveryTiming:
    def test_back_to_back_delivery_times(self):
        _, _, sink = run_burst()
        assert sink.times == pytest.approx([0.001 * k for k in range(1, 11)])

    def test_route_delay_delivery_times(self):
        _, _, sink = run_burst(delay=0.005)
        assert sink.times == pytest.approx(
            [0.005 + 0.001 * k for k in range(1, 11)]
        )

    def test_every_completion_and_delivery_is_one_event(self):
        # A packet with no route ends at its completion; a routed one is
        # one more event, with or without a delay.
        sim, _, sink = run_burst(routed=False)
        assert sim.events_processed == 10 and sink.times == []
        for delay in (0.0, 0.005):
            routed, _, _ = run_burst(delay=delay)
            assert routed.events_processed == 20

    def test_foreign_event_mid_burst_changes_no_delivery_time(self):
        sim = Simulator()
        q, link, sink = make_link(sim)
        for _ in range(10):
            q.enqueue(make_packet(size=1000))
        sim.schedule(0.0055, lambda: None)  # mid-burst foreign event
        sim.run(1.0)
        assert sink.times == pytest.approx([0.001 * k for k in range(1, 11)])

class TestAccounting:
    def test_busy_time_and_utilization(self):
        _, link, _ = run_burst()
        assert link.busy_time == pytest.approx(0.010)
        assert link.bytes_sent * 8 / link.capacity_bps == pytest.approx(link.busy_time)

    def test_idle_time_accrues_between_bursts(self):
        sim = Simulator()
        q, link, sink = make_link(sim)
        q.enqueue(make_packet(size=1000))
        sim.schedule(0.005, q.enqueue, make_packet(size=1000))
        sim.run(0.010)
        # Busy [0, 1ms] and [5, 6ms]; the 4 ms gap is the accrued idle
        # time (trailing idle is accounted at the next busy transition).
        assert link.busy_time == pytest.approx(0.002)
        assert link.idle_time == pytest.approx(0.004)
