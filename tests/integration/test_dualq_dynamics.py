"""Further DualQ dynamics tests: controller behaviour and overload."""


from repro.aqm.dualq import DualQueueCoupledAqm
from repro.harness.topology import Dumbbell
from repro.net.packet import ECN
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.traffic.udp import UdpSource


def build(capacity=20e6, seed=2, **kwargs):
    sim = Simulator()
    streams = RandomStreams(seed)
    queue = DualQueueCoupledAqm(sim, capacity, rng=streams.stream("aqm"), **kwargs)
    bed = Dumbbell(sim, streams, capacity, aqm=None, queue=queue)
    return sim, streams, queue, bed


class TestControllerDynamics:
    def test_p_prime_rises_under_classic_load(self):
        sim, streams, queue, bed = build()
        for _ in range(5):
            bed.add_tcp_flow("cubic", rtt=0.02)
        sim.run(15.0)
        assert queue.controller.p > 0.0

    def test_c_queue_delay_held_near_target(self):
        sim, streams, queue, bed = build()
        for _ in range(5):
            bed.add_tcp_flow("cubic", rtt=0.02)
        sim.run(20.0)
        c_delay = queue._c_bytes * 8.0 / queue.capacity_bps
        assert c_delay < 0.060

    def test_pure_scalable_load_controlled_by_native_threshold(self):
        sim, streams, queue, bed = build()
        for _ in range(4):
            bed.add_tcp_flow("dctcp", rtt=0.02)
        sim.run(15.0)
        # No classic backlog → p' stays near zero; the shallow native
        # threshold does the marking.
        assert queue.controller.p < 0.05
        assert queue.l_stats.ce_marked > 0

    def test_udp_flood_in_classic_queue_bounded_by_tail_drop(self):
        sim, streams, queue, bed = build(buffer_packets=200)
        source = UdpSource(sim, 99, transmit=queue.enqueue, rate_bps=40e6)
        bed._fwd_pipes[99] = None  # route to default sink
        source.start(0.0)
        sim.run(5.0)
        assert queue.packet_length() <= 200
        assert queue.stats.tail_dropped > 0


class TestAccounting:
    def test_queue_stats_balance(self):
        sim, streams, queue, bed = build()
        bed.add_tcp_flow("dctcp", rtt=0.02)
        bed.add_tcp_flow("cubic", rtt=0.02)
        sim.run(10.0)
        s = queue.stats
        assert queue.l_stats.enqueued + queue.c_stats.enqueued == s.enqueued
        assert s.dequeued <= s.enqueued

    def test_byte_length_consistent(self):
        # Standalone queue (no link draining it behind our back).
        import random

        from tests.conftest import make_packet

        sim = Simulator()
        queue = DualQueueCoupledAqm(sim, 10e6, rng=random.Random(1))
        queue.enqueue(make_packet(ecn=ECN.ECT1, size=1000))
        queue.enqueue(make_packet(ecn=ECN.NOT_ECT, size=500))
        assert queue.byte_length() == 1500
        queue.dequeue()
        queue.dequeue()
        assert queue.byte_length() == 0
