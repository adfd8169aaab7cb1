"""Unit tests for the dumbbell topology."""

import pytest

from repro.core.pi2 import Pi2Aqm
from repro.harness.topology import Dumbbell


def make_bed(sim, streams, aqm=None, capacity=10e6, **kwargs):
    return Dumbbell(sim, streams, capacity, aqm, **kwargs)


class TestFlowWiring:
    def test_tcp_flow_moves_data(self, sim, streams):
        bed = make_bed(sim, streams)
        bed.add_tcp_flow("reno", rtt=0.05, label="x")
        sim.run(5.0)
        assert bed.receivers[0].segments_received > 100

    def test_unknown_cc_rejected(self, sim, streams):
        bed = make_bed(sim, streams)
        with pytest.raises(ValueError):
            bed.add_tcp_flow("vegas", rtt=0.05)

    def test_invalid_rtt_rejected(self, sim, streams):
        bed = make_bed(sim, streams)
        with pytest.raises(ValueError):
            bed.add_tcp_flow("reno", rtt=0)

    def test_flow_ids_unique(self, sim, streams):
        bed = make_bed(sim, streams)
        a = bed.add_tcp_flow("reno", rtt=0.05)
        b = bed.add_tcp_flow("cubic", rtt=0.05)
        assert a.flow_id != b.flow_id

    def test_stop_before_start_rejected(self, sim, streams):
        bed = make_bed(sim, streams)
        with pytest.raises(ValueError):
            bed.add_tcp_flow("reno", rtt=0.05, start=5.0, stop=4.0)

    def test_udp_flow_counted_at_sink(self, sim, streams):
        bed = make_bed(sim, streams)
        bed.add_udp_flow(rate_bps=2e6)
        sim.run(5.0)
        assert bed._udp_sink.bytes * 8.0 / 5.0 == pytest.approx(2e6, rel=0.05)


class TestInstrumentation:
    def test_queue_delay_sampled(self, sim, streams):
        bed = make_bed(sim, streams, sample_period=0.5)
        bed.add_tcp_flow("reno", rtt=0.05)
        sim.run(4.0)
        assert len(bed.queue_delay) == 8

    def test_sojourns_recorded(self, sim, streams):
        bed = make_bed(sim, streams)
        bed.add_tcp_flow("reno", rtt=0.05)
        sim.run(2.0)
        assert len(bed.sojourns) > 0

    def test_sojourn_recording_can_be_disabled(self, sim, streams):
        bed = make_bed(sim, streams, record_sojourns=False)
        bed.add_tcp_flow("reno", rtt=0.05)
        sim.run(2.0)
        assert len(bed.sojourns) == 0

    def test_probability_sampled_with_aqm(self, sim, streams):
        bed = make_bed(sim, streams, aqm=Pi2Aqm(rng=streams.stream("aqm")))
        bed.add_tcp_flow("reno", rtt=0.05)
        sim.run(3.0)
        assert len(bed.probability) == 3

    def test_utilization_bounded(self, sim, streams):
        bed = make_bed(sim, streams)
        bed.add_tcp_flow("reno", rtt=0.05)
        sim.run(5.0)
        assert all(0.0 <= u <= 1.01 for u in bed.utilization.values)

    def test_set_capacity_changes_link(self, sim, streams):
        bed = make_bed(sim, streams)
        bed.set_capacity(20e6)
        assert bed.link.capacity_bps == 20e6
        assert bed.queue.capacity_bps == 20e6
