"""Unit tests for the TCP receiver: ACK generation and ECN echo."""

from functools import partial

import pytest

from repro.net.packet import ECN, Packet
from repro.sim.engine import Simulator
from repro.tcp.receiver import DELACK_TIMEOUT, TcpReceiver


def data(seq, ecn=ECN.NOT_ECT, cwr=False, ce=False):
    pkt = Packet(flow_id=0, seq=seq, ecn=ecn, cwr=cwr)
    if ce:
        pkt.mark_ce()
    return pkt


@pytest.fixture
def acks():
    return []


def make_receiver(sim, acks, ecn_mode="off", delayed_acks=False):
    return TcpReceiver(
        sim, flow_id=0, ack_out=acks.append, ecn_mode=ecn_mode,
        delayed_acks=delayed_acks,
    )


class TestValidation:
    @pytest.mark.parametrize("mode", ["scalabel", "bogus", ""])
    def test_unknown_ecn_mode_rejected(self, sim, acks, mode):
        # A misspelt mode would otherwise behave as "off" and never echo.
        with pytest.raises(ValueError, match="ecn_mode must be one of"):
            make_receiver(sim, acks, ecn_mode=mode)


class TestAckDelay:
    """The dumbbell's reverse path: each ACK's fields pushed straight onto
    the heap, ``ack_delay`` seconds out to ``on_ack``, instead of an ACK
    packet to ``ack_out`` at once."""

    @pytest.mark.parametrize("delay", [-0.001, float("nan")])
    def test_bad_delay_rejected_where_it_enters(self, sim, acks, delay):
        # The push bypasses post's check, so set_ack_delay checks it.
        rcv = make_receiver(sim, acks)
        with pytest.raises(ValueError, match="ACK delay must be non-negative"):
            rcv.set_ack_delay(delay, lambda *fields: None)
        assert rcv.ack_delay is None and rcv.on_ack is None

    def test_without_a_delay_ack_out_is_called_at_once(self, sim, acks):
        rcv = make_receiver(sim, acks)
        rcv.deliver(data(0))
        assert [a.ack for a in acks] == [1]
        assert sim.pending_events == 0

    def test_delay_defers_ack_out(self, sim):
        # The fields arrive at on_ack, ack_delay later; ack_out is unused.
        arrived = []
        rcv = TcpReceiver(sim, 0, ack_out=lambda ack: arrived.append("packet"),
                          delayed_acks=False)
        rcv.set_ack_delay(
            0.005, lambda ack, ece, send_time, sack: arrived.append((sim.now, ack))
        )
        rcv.deliver(data(0))
        assert arrived == []
        sim.run(0.0049)
        assert arrived == []
        sim.run(0.01)
        assert arrived == [(0.005, 1)]

    def test_delay_dispatches_as_the_post_it_replaces(self):
        # Same ACKs, same times, same interleaving with other events.
        def drive(pushed):
            sim = Simulator()
            seen = []
            if pushed:
                rcv = TcpReceiver(sim, 0, ack_out=None)
                rcv.set_ack_delay(
                    0.01,
                    lambda ack, ece, send_time, sack: seen.append((sim.now, "ack", ack)),
                )
            else:
                sink = lambda ack: seen.append((sim.now, "ack", ack.ack))  # noqa: E731
                rcv = TcpReceiver(sim, 0, ack_out=partial(sim.post, 0.01, sink))
            for i in range(4):
                sim.at(0.001 * i, rcv.deliver, data(i))
                sim.at(0.011 + 0.001 * i, seen.append, (0.011 + 0.001 * i, "timer", i))
            sim.run(1.0)
            return seen

        assert drive(True) == drive(False)

    def test_pushed_fields_are_the_packet_fields(self, sim):
        # The four fields the push carries are the ones the packet would.
        packets, fields = [], []
        by_packet = TcpReceiver(sim, 0, ack_out=packets.append,
                                ecn_mode="scalable", delayed_acks=False, sack=True)
        pushed = TcpReceiver(sim, 0, ack_out=None, ecn_mode="scalable",
                             delayed_acks=False, sack=True)
        pushed.set_ack_delay(0.0, lambda *ack: fields.append(ack))
        for seq, ce in [(0, False), (2, True), (4, True), (1, False)]:
            for rcv in (by_packet, pushed):
                pkt = data(seq, ecn=ECN.ECT1, ce=ce)
                pkt.send_time = 0.1 * seq
                rcv.deliver(pkt)
        sim.run(1.0)
        assert fields == [(a.ack, a.ece, a.send_time, a.sack) for a in packets]
        assert any(ece for _, ece, _, _ in fields) and any(sack for *_, sack in fields)


class TestDelayedAckWakeup:
    """The delayed-ACK wakeup is one plain heap entry per receiver, never
    an Event: arming writes a deadline, and the entry re-checks it."""

    def test_wakeup_is_one_plain_entry_that_resleeps(self, sim):
        sent = []
        rcv = TcpReceiver(sim, 0, ack_out=lambda ack: sent.append((sim.now, ack.ack)))
        rcv.deliver(data(0))                  # arms: deadline 0.040
        assert [entry[2:] for entry in sim.heap] == [(rcv._on_delack, ())]
        rcv.deliver(data(1))                  # second segment: ACK at once
        assert sent == [(0.0, 2)]
        sim.run(0.010)
        rcv.deliver(data(2))                  # re-arms: deadline 0.050
        assert len(sim.heap) == 1             # the pending entry is reused
        sim.run(0.045)                        # stale wakeup at 0.040 re-sleeps
        assert sent == [(0.0, 2)]
        assert [(t, fn) for t, _, fn, _ in sim.heap] == [(0.050, rcv._on_delack)]
        sim.run(0.1)
        assert sent == [(0.0, 2), (0.050, 3)]
        assert sim.pending_events == 0 and sim.events_processed == 2

    def test_disarmed_wakeup_drops_itself_and_frees_the_flag(self, sim):
        sent = []
        rcv = TcpReceiver(sim, 0, ack_out=lambda ack: sent.append((sim.now, ack.ack)))
        rcv.deliver(data(0))
        rcv.deliver(data(1))                  # ACKed at once: disarmed
        sim.run(0.041)                        # the wakeup fires and drops
        assert sim.pending_events == 0
        rcv.deliver(data(2))                  # a fresh arming pushes again
        assert len(sim.heap) == 1
        sim.run(0.1)
        assert sent == [(0.0, 2), (0.081, 3)]


class TestCumulativeAcks:
    def test_in_order_advances(self, sim, acks):
        rcv = make_receiver(sim, acks)
        for i in range(3):
            rcv.deliver(data(i))
        assert [a.ack for a in acks] == [1, 2, 3]

    def test_out_of_order_generates_dupacks(self, sim, acks):
        rcv = make_receiver(sim, acks)
        rcv.deliver(data(0))
        rcv.deliver(data(2))  # hole at 1
        rcv.deliver(data(3))
        assert [a.ack for a in acks] == [1, 1, 1]

    def test_hole_fill_jumps_cumulatively(self, sim, acks):
        rcv = make_receiver(sim, acks)
        rcv.deliver(data(0))
        rcv.deliver(data(2))
        rcv.deliver(data(1))
        assert acks[-1].ack == 3

    def test_duplicate_segment_reacked(self, sim, acks):
        rcv = make_receiver(sim, acks)
        rcv.deliver(data(0))
        rcv.deliver(data(0))
        assert [a.ack for a in acks] == [1, 1]
        assert rcv.duplicates == 1

    def test_acks_are_ack_packets(self, sim, acks):
        rcv = make_receiver(sim, acks)
        rcv.deliver(data(0))
        assert acks[0].is_ack

    def test_ignores_delivered_acks(self, sim, acks):
        rcv = make_receiver(sim, acks)
        rcv.deliver(Packet(flow_id=0, ack=5, is_ack=True))
        assert acks == []

    def test_timestamp_echo(self, sim, acks):
        rcv = make_receiver(sim, acks)
        pkt = data(0)
        pkt.send_time = 1.25
        rcv.deliver(pkt)
        assert acks[0].send_time == 1.25


class TestDelayedAcks:
    def test_every_second_segment_acked(self, sim, acks):
        rcv = make_receiver(sim, acks, delayed_acks=True)
        rcv.deliver(data(0))
        assert acks == []  # held back
        rcv.deliver(data(1))
        assert [a.ack for a in acks] == [2]

    def test_delack_timer_flushes_single_segment(self, sim, acks):
        rcv = make_receiver(sim, acks, delayed_acks=True)
        rcv.deliver(data(0))
        sim.run(DELACK_TIMEOUT + 0.001)
        assert [a.ack for a in acks] == [1]

    def test_out_of_order_acks_immediately(self, sim, acks):
        rcv = make_receiver(sim, acks, delayed_acks=True)
        rcv.deliver(data(0))
        rcv.deliver(data(2))
        # The OOO arrival must flush immediately (duplicate ACK).
        assert [a.ack for a in acks][-1] == 1


class TestClassicEcho:
    def test_ce_latches_ece(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="classic")
        rcv.deliver(data(0, ecn=ECN.ECT0, ce=True))
        rcv.deliver(data(1, ecn=ECN.ECT0))
        assert acks[0].ece and acks[1].ece

    def test_cwr_clears_latch(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="classic")
        rcv.deliver(data(0, ecn=ECN.ECT0, ce=True))
        rcv.deliver(data(1, ecn=ECN.ECT0, cwr=True))
        rcv.deliver(data(2, ecn=ECN.ECT0))
        assert acks[0].ece
        assert not acks[1].ece
        assert not acks[2].ece


class TestDctcpEcho:
    def test_accurate_per_packet_echo(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="scalable")
        rcv.deliver(data(0, ecn=ECN.ECT1, ce=True))
        rcv.deliver(data(1, ecn=ECN.ECT1))
        rcv.deliver(data(2, ecn=ECN.ECT1, ce=True))
        assert [a.ece for a in acks] == [True, False, True]

    def test_ce_state_change_flushes_pending_delack(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="scalable", delayed_acks=True)
        rcv.deliver(data(0, ecn=ECN.ECT1))          # pending, unmarked run
        rcv.deliver(data(1, ecn=ECN.ECT1, ce=True)) # state change
        # First ACK covers the unmarked run with ece=False.
        assert acks[0].ece is False
        assert acks[0].ack == 1

    def test_off_mode_never_sets_ece(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="off")
        rcv.deliver(data(0))
        rcv.deliver(data(1, ecn=ECN.ECT0, ce=True))
        rcv.deliver(data(2, ecn=ECN.ECT1, ce=True))
        assert [a.ece for a in acks] == [False, False, False]
        assert rcv.ce_received == 2

    def test_ce_counter(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="scalable")
        rcv.deliver(data(0, ecn=ECN.ECT1, ce=True))
        rcv.deliver(data(1, ecn=ECN.ECT1, ce=True))
        assert rcv.ce_received == 2
