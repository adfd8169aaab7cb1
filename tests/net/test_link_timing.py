"""Link and pipe timing: delivery times, accounting, fault interaction.

Every transmission completion, propagation-delay delivery and pipe
arrival is one posted engine event, so each callback fires at exactly
the simulated time the packet's serialization and delays dictate.  These
tests pin those times at the unit level — the end-to-end ``digest()``
gates live in ``tests/harness/test_digest_regression.py``.
"""

import pytest

from repro.net.link import Link
from repro.net.pipe import Pipe
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from tests.conftest import make_packet


class TimedSink:
    """Sink recording the simulated time of every delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.times = []

    def deliver(self, packet):
        self.times.append(self.sim.now)


def make_link(sim, capacity=8e6, prop_delay=0.0):
    q = AQMQueue(sim, None, capacity)
    sink = TimedSink(sim)
    link = Link(sim, q, capacity, sink=sink, prop_delay=prop_delay)
    return q, link, sink


def run_burst(n=10, capacity=8e6, prop_delay=0.0, until=1.0):
    """Enqueue ``n`` back-to-back packets and run; returns (sim, link, sink)."""
    sim = Simulator()
    q, link, sink = make_link(sim, capacity=capacity, prop_delay=prop_delay)
    for _ in range(n):
        q.enqueue(make_packet(size=1000))  # 1 ms each at 8 Mb/s
    sim.run(until)
    return sim, link, sink


class TestDeliveryTiming:
    def test_back_to_back_delivery_times(self):
        _, _, sink = run_burst()
        assert sink.times == pytest.approx([0.001 * k for k in range(1, 11)])

    def test_prop_delay_delivery_times(self):
        _, _, sink = run_burst(prop_delay=0.005)
        assert sink.times == pytest.approx(
            [0.005 + 0.001 * k for k in range(1, 11)]
        )

    def test_every_completion_and_delivery_is_one_event(self):
        sim, _, _ = run_burst()
        assert sim.events_processed == 10
        delayed, _, _ = run_burst(prop_delay=0.005)
        assert delayed.events_processed == 20

    def test_pipe_arrival_times(self):
        sim = Simulator()
        sink = TimedSink(sim)
        pipe = Pipe(sim, delay=0.010, sink=sink)
        sends = [0.001 * k or 1e-6 for k in range(5)]
        for at in sends:
            sim.schedule(at, pipe.deliver, make_packet())
        sim.run(1.0)
        assert sink.times == pytest.approx([at + 0.010 for at in sends])
        assert pipe.delivered == 5

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


class TestFaultInteraction:
    def test_flap_lands_between_completions(self):
        """An outage event lands between two completions: the in-flight
        packet finishes, nothing new starts until the link is back up."""
        sim = Simulator()
        q, link, sink = make_link(sim)
        for _ in range(10):
            q.enqueue(make_packet(size=1000))
        sim.schedule(0.0025, link.set_down)  # between 2 ms and 3 ms
        sim.schedule(0.010, link.set_up)
        sim.run(1.0)
        assert link.outages == 1
        # 3 packets before the outage (the one in flight at 2.5 ms
        # completes at 3 ms), 7 after restoration at 10 ms.
        assert sink.times == pytest.approx(
            [0.001, 0.002, 0.003] + [0.010 + 0.001 * k for k in range(1, 8)]
        )
        assert link.busy_time == pytest.approx(0.010)

    def test_flap_while_idle_delays_nothing(self):
        sim = Simulator()
        q, link, sink = make_link(sim)
        q.enqueue(make_packet(size=1000))
        sim.schedule(0.005, link.set_down)  # link drained and idle by then
        sim.run(0.010)
        assert link.outages == 1
        assert sink.times == pytest.approx([0.001])
