"""Unit tests for the DualQ Coupled AQM extension."""

import random

import pytest

from repro.aqm.dualq import DualQueueCoupledAqm
from repro.net.link import Link
from repro.net.node import CountingSink
from repro.net.packet import ECN
from tests.conftest import make_packet


def make_dualq(sim, **kwargs):
    kwargs.setdefault("rng", random.Random(1))
    return DualQueueCoupledAqm(sim, capacity_bps=10e6, **kwargs)


class TestClassification:
    def test_scalable_goes_to_l_queue(self, sim):
        dq = make_dualq(sim)
        dq.enqueue(make_packet(ecn=ECN.ECT1))
        assert dq.l_stats.enqueued == 1
        assert dq.c_stats.enqueued == 0

    def test_classic_goes_to_c_queue(self, sim):
        dq = make_dualq(sim)
        dq.enqueue(make_packet(ecn=ECN.ECT0))
        dq.enqueue(make_packet(ecn=ECN.NOT_ECT))
        assert dq.c_stats.enqueued == 2
        assert dq.l_stats.enqueued == 0

    def test_shared_buffer_limit(self, sim):
        dq = make_dualq(sim, buffer_packets=2)
        assert dq.enqueue(make_packet(ecn=ECN.ECT1))
        assert dq.enqueue(make_packet())
        assert not dq.enqueue(make_packet())
        assert dq.stats.tail_dropped == 1


class TestCoupling:
    def test_classic_probability_is_p_prime_squared(self, sim):
        dq = make_dualq(sim)
        dq.controller.p = 0.3
        n = 20_000
        for _ in range(n):
            dq.enqueue(make_packet(ecn=ECN.ECT0))
            dq.dequeue()
        # A Classic packet is marked when both of two draws fall below
        # p', so at the squared probability p'² = 0.09.
        assert dq.c_stats.ce_marked / n == pytest.approx(0.09, abs=0.01)

    def test_l_probability_is_k_times_p_prime(self, sim):
        dq = make_dualq(sim, k=2.0)
        dq.controller.p = 0.3
        assert dq.probability == pytest.approx(0.6)

    def test_l_probability_clamped(self, sim):
        dq = make_dualq(sim, k=2.0)
        dq.controller.p = 0.8
        assert dq.probability == 1.0

    def test_native_threshold_marks_on_l_backlog(self, sim):
        dq = make_dualq(sim, l_threshold=0.0005)
        # Fill L with enough bytes to exceed the 0.5 ms native threshold.
        for _ in range(10):
            dq.enqueue(make_packet(ecn=ECN.ECT1, size=1500))
        # 10*1500B at 10 Mb/s = 12 ms >> threshold: next arrival marked.
        dq.enqueue(make_packet(ecn=ECN.ECT1, size=1500))
        assert dq.l_stats.ce_marked >= 1


class TestScheduler:
    def test_l_has_priority(self, sim):
        dq = make_dualq(sim)
        dq.enqueue(make_packet(ecn=ECN.NOT_ECT, seq=1))
        dq.enqueue(make_packet(ecn=ECN.ECT1, seq=2))
        head = dq.dequeue()
        assert head.seq == 2  # L-queue packet first despite later arrival

    def test_time_shift_prevents_c_starvation(self, sim):
        dq = make_dualq(sim, tshift=0.010)
        dq.enqueue(make_packet(ecn=ECN.NOT_ECT, seq=1))
        sim.run(0.020)  # C head waits 20 ms > tshift
        dq.enqueue(make_packet(ecn=ECN.ECT1, seq=2))
        assert dq.dequeue().seq == 1

    def test_empty_dequeue_returns_none(self, sim):
        assert make_dualq(sim).dequeue() is None

    def test_drains_through_link(self, sim):
        dq = make_dualq(sim)
        sink = CountingSink()
        Link(sim, dq, 10e6, sink=sink)
        dq.enqueue(make_packet(ecn=ECN.ECT1))
        dq.enqueue(make_packet(ecn=ECN.NOT_ECT))
        sim.run(1.0)
        assert sink.packets == 2
        assert len(dq) == 0


class TestOverload:
    def test_classic_dropped_at_high_p_prime(self, sim):
        dq = make_dualq(sim)
        dq.controller.p = 1.0
        outcomes = [dq.enqueue(make_packet()) for _ in range(100)]
        assert not all(outcomes)
        assert dq.c_stats.aqm_dropped > 0

    def test_scalable_never_dropped_by_aqm(self, sim):
        dq = make_dualq(sim)
        dq.controller.p = 1.0
        outcomes = [dq.enqueue(make_packet(ecn=ECN.ECT1)) for _ in range(100)]
        assert all(outcomes)
        assert dq.l_stats.ce_marked == 100
