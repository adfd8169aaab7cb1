"""Integration tests for the DualQ Coupled extension: the paper's stated
deployment goal — Scalable traffic gets low latency *and* rate balance
with Classic traffic behind the same link."""

import numpy as np
import pytest

from repro.aqm.dualq import DualQueueCoupledAqm
from repro.errors import ConfigError
from repro.harness.topology import Dumbbell
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


def run_dualq_pair(capacity=40e6, rtt=0.010, duration=30.0, warmup=10.0, seed=1):
    sim = Simulator()
    streams = RandomStreams(seed)
    l_sojourns = []
    c_sojourns = []

    def on_sojourn(now, sojourn, pkt):
        if now < warmup:
            return
        (l_sojourns if pkt.is_scalable else c_sojourns).append(sojourn)

    queue = DualQueueCoupledAqm(
        sim, capacity, rng=streams.stream("aqm"), on_sojourn=on_sojourn
    )
    bed = Dumbbell(sim, streams, capacity, aqm=None, queue=queue)
    bed.add_tcp_flow("dctcp", rtt=rtt, label="dctcp")
    bed.add_tcp_flow("cubic", rtt=rtt, label="cubic")
    sim.at(warmup, bed.flows.open_windows, warmup)
    sim.run(duration)
    return bed, l_sojourns, c_sojourns, duration


class TestDualQ:
    def test_rejects_queue_and_aqm_together(self):
        sim = Simulator()
        streams = RandomStreams(1)
        queue = DualQueueCoupledAqm(sim, 10e6)
        from repro.core.pi2 import Pi2Aqm

        with pytest.raises(ValueError):
            Dumbbell(sim, streams, 10e6, aqm=Pi2Aqm(), queue=queue)

    def test_scalable_latency_far_below_classic(self):
        bed, l_s, c_s, _ = run_dualq_pair()
        assert l_s and c_s
        assert np.mean(l_s) < np.mean(c_s) / 2

    def test_scalable_latency_is_low(self):
        bed, l_s, _, _ = run_dualq_pair()
        assert np.mean(l_s) < 0.005

    def test_rate_balance_near_one(self):
        bed, _, _, duration = run_dualq_pair()
        cubic = sum(bed.goodput_bps("cubic", duration))
        dctcp = sum(bed.goodput_bps("dctcp", duration))
        assert 0.3 < cubic / dctcp < 3.0

    def test_link_well_utilized(self):
        bed, _, _, duration = run_dualq_pair()
        total = sum(bed.goodput_bps("cubic", duration)) + sum(
            bed.goodput_bps("dctcp", duration)
        )
        assert total > 0.85 * bed.capacity_bps

    def test_probability_sampled_from_queue(self):
        bed, _, _, _ = run_dualq_pair(duration=12.0)
        assert len(bed.probability) > 0


class TestCustomQueueSojourns:
    def test_custom_queue_records_every_sojourn(self):
        # One Cubic flow, 20 Mb/s, 20 ms, 2 s: every dequeue lands in
        # bed.sojourns, with the value the queue's on_sojourn sees.
        sim = Simulator()
        streams = RandomStreams(1)
        seen = []
        queue = DualQueueCoupledAqm(
            sim, 20e6, rng=streams.stream("aqm"),
            on_sojourn=lambda now, sojourn, pkt: seen.append((now, sojourn)),
        )
        bed = Dumbbell(sim, streams, 20e6, aqm=None, queue=queue)
        bed.add_tcp_flow("cubic", rtt=0.020)
        sim.run(2.0)
        assert queue.stats.dequeued > 1000
        assert len(bed.sojourns) == queue.stats.dequeued
        assert list(zip(bed.sojourns.times, bed.sojourns.values)) == seen

    def test_queue_that_cannot_record_is_rejected(self):
        class NoRecorders:
            def set_wakeup(self, fn):
                pass

        sim = Simulator()
        streams = RandomStreams(1)
        with pytest.raises(ConfigError, match="record_sojourns=False"):
            Dumbbell(sim, streams, 10e6, aqm=None, queue=NoRecorders())
        bed = Dumbbell(
            sim, streams, 10e6, aqm=None, queue=NoRecorders(), record_sojourns=False
        )
        assert len(bed.sojourns) == 0
