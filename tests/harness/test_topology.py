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

    @pytest.mark.parametrize("rtt", [-0.05, float("nan")])
    def test_bad_rtt_wires_nothing(self, sim, streams, rtt):
        # rtt / 2 becomes two directly pushed delays, which no later
        # check sees; NaN would sit in the heap unordered.
        bed = make_bed(sim, streams)
        with pytest.raises(ValueError, match="RTT must be positive"):
            bed.add_tcp_flow("reno", rtt=rtt)
        assert bed.link.routes == {} and bed.receivers == {}

    def test_each_one_way_delay_is_a_direct_hop(self, sim, streams):
        # The link's route carries rtt / 2 straight to the receiver's
        # deliver, and the receiver's ACK hop carries each ACK's fields
        # as far to the sender's on_ack.
        bed = make_bed(sim, streams)
        bed.add_tcp_flow("reno", rtt=0.05)
        receiver, sender = bed.receivers[0], bed.senders[0]
        assert bed.link.routes[0] == (0.025, receiver.deliver)
        assert (receiver.ack_delay, receiver.on_ack) == (0.025, sender.on_ack)

    def test_flow_ids_unique(self, sim, streams):
        bed = make_bed(sim, streams)
        a = bed.add_tcp_flow("reno", rtt=0.05)
        b = bed.add_tcp_flow("cubic", rtt=0.05)
        assert a.flow_id != b.flow_id

    @pytest.mark.parametrize("stop", [4.0, 5.0, float("nan")])
    def test_stop_not_after_start_wires_nothing(self, sim, streams, stop):
        # The check runs before any wiring, so a rejected flow leaves no
        # flow id, record, endpoint, route or start event behind.
        bed = make_bed(sim, streams)
        bed.add_tcp_flow("reno", rtt=0.05)
        before = (
            dict(bed.senders), dict(bed.receivers), dict(bed.link.routes),
            len(bed.flows), bed._next_flow_id, list(sim.heap),
        )
        with pytest.raises(ValueError, match="must be after start"):
            bed.add_tcp_flow("reno", rtt=0.05, start=5.0, stop=stop)
        after = (
            bed.senders, bed.receivers, bed.link.routes,
            len(bed.flows), bed._next_flow_id, sim.heap,
        )
        assert after == before

    def test_udp_flow_ends_at_the_link(self, sim, streams):
        # A UDP flow has no receiver and no route: the link counts its
        # packets as it sends them, and they end there.
        bed = make_bed(sim, streams)
        source = bed.add_udp_flow(rate_bps=2e6)
        sim.run(5.0)
        assert bed.link.routes == {}
        assert bed.link.bytes_sent * 8.0 / 5.0 == pytest.approx(2e6, rel=0.05)
        assert source.packets_sent - bed.link.packets_sent in (0, 1)


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
