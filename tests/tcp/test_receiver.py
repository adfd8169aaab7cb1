"""Unit tests for the TCP receiver: ACK generation and ECN echo."""

from typing import NamedTuple

import pytest

from repro.net.packet import ECN, Packet
from repro.sim.engine import Simulator
from repro.tcp.receiver import DELACK_TIMEOUT, TcpReceiver


def data(seq, ecn=ECN.NOT_ECT, cwr=False, ce=False):
    pkt = Packet(flow_id=0, seq=seq, ecn=ecn, cwr=cwr)
    if ce:
        pkt.mark_ce()
    return pkt


class Ack(NamedTuple):
    """The fields the receiver pushes to ``on_ack``, one ACK."""

    ack: int
    ece: bool
    send_time: float
    sack: tuple


@pytest.fixture
def acks():
    return []


def make_receiver(sim, acks, ecn_mode="off", delayed_acks=False, sack=False):
    """A receiver whose ACKs land in ``acks`` with no reverse-path delay."""
    return TcpReceiver(
        sim, 0, 0.0, lambda *fields: acks.append(Ack(*fields)),
        ecn_mode=ecn_mode, delayed_acks=delayed_acks, sack=sack,
    )


def arrive(sim, rcv, *pkts):
    """Deliver each segment, then run the ACKs it pushed (zero delay)."""
    for pkt in pkts:
        rcv.deliver(pkt)
    sim.run(sim.now)


class TestValidation:
    @pytest.mark.parametrize("mode", ["scalabel", "bogus", ""])
    def test_unknown_ecn_mode_rejected(self, sim, acks, mode):
        # A misspelt mode would otherwise behave as "off" and never echo.
        with pytest.raises(ValueError, match="ecn_mode must be one of"):
            make_receiver(sim, acks, ecn_mode=mode)

    @pytest.mark.parametrize("delay", [-0.001, float("nan"), float("inf")])
    def test_bad_ack_delay_rejected_where_it_enters(self, sim, delay):
        # Each ACK's push has no check of its own, so the constructor
        # checks the delay; an infinite one would never reach on_ack.
        with pytest.raises(ValueError, match="ACK delay must be non-negative"):
            TcpReceiver(sim, 0, delay, lambda *fields: None)


class TestAckHop:
    """Each ACK's fields are one heap entry ``ack_delay`` seconds out to
    ``on_ack``; no ACK packet is built."""

    def test_zero_delay_ack_runs_after_the_current_event(self, sim, acks):
        rcv = make_receiver(sim, acks)
        rcv.deliver(data(0))
        assert acks == [] and sim.pending_events == 1
        sim.run(sim.now)
        assert acks == [Ack(1, False, 0.0, ())]

    def test_delay_defers_on_ack(self, sim):
        arrived = []
        rcv = TcpReceiver(
            sim, 0, 0.005,
            lambda ack, ece, send_time, sack: arrived.append((sim.now, ack)),
            delayed_acks=False,
        )
        rcv.deliver(data(0))
        assert arrived == []
        sim.run(0.0049)
        assert arrived == []
        sim.run(0.01)
        assert arrived == [(0.005, 1)]

    def test_ack_interleaves_as_a_post_would(self):
        # The push draws its seq where a post from the same call would:
        # same ACKs, same times, same interleaving with other events.
        def drive(pushed):
            sim = Simulator()
            seen = []

            def record(ack, *rest):
                seen.append((sim.now, "ack", ack))

            if pushed:
                arrive_at = TcpReceiver(sim, 0, 0.01, record, delayed_acks=False).deliver
            else:
                def arrive_at(pkt):
                    sim.post(0.01, record, pkt.seq + 1)
            for i in range(4):
                sim.at(0.001 * i, arrive_at, data(i))
                sim.at(0.011 + 0.001 * i, seen.append, (0.011 + 0.001 * i, "timer", i))
            sim.run(1.0)
            return seen

        assert drive(True) == drive(False)
        assert [kind for _, kind, _ in drive(True)].count("ack") == 4

    def test_fields_carry_the_echo_and_the_sack_blocks(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="scalable", sack=True)
        for seq, ce in [(0, False), (2, True), (4, True), (1, False)]:
            pkt = data(seq, ecn=ECN.ECT1, ce=ce)
            pkt.send_time = 0.1 * seq
            arrive(sim, rcv, pkt)
        assert acks == [
            Ack(1, False, 0.0, ()),
            Ack(1, True, 0.2, ((2, 2),)),
            Ack(1, True, 0.4, ((2, 2), (4, 4))),
            Ack(3, False, 0.1, ((4, 4),)),
        ]


class TestDelayedAckWakeup:
    """The delayed-ACK wakeup is one plain heap entry per receiver, never
    an Event: arming writes a deadline, and the entry re-checks it."""

    @staticmethod
    def _receiver(sim, sent):
        return TcpReceiver(sim, 0, 0.0, lambda ack, *rest: sent.append((sim.now, ack)))

    def test_wakeup_is_one_plain_entry_that_resleeps(self, sim):
        sent = []
        rcv = self._receiver(sim, sent)
        rcv.deliver(data(0))                  # arms: deadline 0.040
        assert [entry[2:] for entry in sim.heap] == [(rcv._on_delack, ())]
        arrive(sim, rcv, data(1))             # second segment: ACK at once
        assert sent == [(0.0, 2)]
        sim.run(0.010)
        rcv.deliver(data(2))                  # re-arms: deadline 0.050
        assert len(sim.heap) == 1             # the pending entry is reused
        sim.run(0.045)                        # stale wakeup at 0.040 re-sleeps
        assert sent == [(0.0, 2)]
        assert [(t, fn) for t, _, fn, _ in sim.heap] == [(0.050, rcv._on_delack)]
        sim.run(0.1)
        assert sent == [(0.0, 2), (0.050, 3)]
        # Two wakeups (the stale one and the live one) and two ACK hops.
        assert sim.pending_events == 0 and sim.events_processed == 4

    def test_disarmed_wakeup_drops_itself_and_frees_the_flag(self, sim):
        sent = []
        rcv = self._receiver(sim, sent)
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
            arrive(sim, rcv, data(i))
        assert [a.ack for a in acks] == [1, 2, 3]

    def test_out_of_order_generates_dupacks(self, sim, acks):
        rcv = make_receiver(sim, acks)
        arrive(sim, rcv, data(0))
        arrive(sim, rcv, data(2))  # hole at 1
        arrive(sim, rcv, data(3))
        assert [a.ack for a in acks] == [1, 1, 1]

    def test_hole_fill_jumps_cumulatively(self, sim, acks):
        rcv = make_receiver(sim, acks)
        arrive(sim, rcv, data(0))
        arrive(sim, rcv, data(2))
        arrive(sim, rcv, data(1))
        assert acks[-1].ack == 3

    def test_duplicate_segment_reacked(self, sim, acks):
        rcv = make_receiver(sim, acks)
        arrive(sim, rcv, data(0))
        arrive(sim, rcv, data(0))
        assert [a.ack for a in acks] == [1, 1]
        assert rcv.duplicates == 1

    def test_timestamp_echo(self, sim, acks):
        rcv = make_receiver(sim, acks)
        pkt = data(0)
        pkt.send_time = 1.25
        arrive(sim, rcv, pkt)
        assert acks[0].send_time == 1.25


class TestSackBlocks:
    @pytest.mark.parametrize(
        "islands", [TcpReceiver.SACK_LIMIT, TcpReceiver.SACK_LIMIT + 1, 40]
    )
    def test_blocks_capped_at_the_lowest_sack_limit(self, sim, acks, islands):
        # Segments 1, 3, 5, ... arrive: each one an island above a hole.
        # The ACK keeps the SACK_LIMIT blocks nearest the cumulative ACK.
        rcv = make_receiver(sim, acks, sack=True)
        arrive(sim, rcv, *(data(2 * i + 1) for i in range(islands)))
        kept = min(islands, TcpReceiver.SACK_LIMIT)
        assert acks[-1] == Ack(0, False, 0.0, tuple((2 * i + 1,) * 2 for i in range(kept)))


class TestDelayedAcks:
    def test_every_second_segment_acked(self, sim, acks):
        rcv = make_receiver(sim, acks, delayed_acks=True)
        arrive(sim, rcv, data(0))
        assert acks == []  # held back
        arrive(sim, rcv, data(1))
        assert [a.ack for a in acks] == [2]

    def test_delack_timer_flushes_single_segment(self, sim, acks):
        rcv = make_receiver(sim, acks, delayed_acks=True)
        arrive(sim, rcv, data(0))
        sim.run(DELACK_TIMEOUT + 0.001)
        assert [a.ack for a in acks] == [1]

    def test_out_of_order_acks_immediately(self, sim, acks):
        rcv = make_receiver(sim, acks, delayed_acks=True)
        arrive(sim, rcv, data(0))
        arrive(sim, rcv, data(2))
        # The OOO arrival must flush immediately (duplicate ACK).
        assert [a.ack for a in acks][-1] == 1


class TestClassicEcho:
    def test_ce_latches_ece(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="classic")
        arrive(sim, rcv, data(0, ecn=ECN.ECT0, ce=True))
        arrive(sim, rcv, data(1, ecn=ECN.ECT0))
        assert acks[0].ece and acks[1].ece

    def test_cwr_clears_latch(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="classic")
        arrive(sim, rcv, data(0, ecn=ECN.ECT0, ce=True))
        arrive(sim, rcv, data(1, ecn=ECN.ECT0, cwr=True))
        arrive(sim, rcv, data(2, ecn=ECN.ECT0))
        assert acks[0].ece
        assert not acks[1].ece
        assert not acks[2].ece


class TestDctcpEcho:
    def test_accurate_per_packet_echo(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="scalable")
        arrive(sim, rcv, data(0, ecn=ECN.ECT1, ce=True))
        arrive(sim, rcv, data(1, ecn=ECN.ECT1))
        arrive(sim, rcv, data(2, ecn=ECN.ECT1, ce=True))
        assert [a.ece for a in acks] == [True, False, True]

    def test_ce_state_change_flushes_pending_delack(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="scalable", delayed_acks=True)
        arrive(sim, rcv, data(0, ecn=ECN.ECT1))          # pending, unmarked run
        arrive(sim, rcv, data(1, ecn=ECN.ECT1, ce=True)) # state change
        # First ACK covers the unmarked run with ece=False.
        assert acks[0].ece is False
        assert acks[0].ack == 1

    def test_off_mode_never_sets_ece(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="off")
        arrive(sim, rcv, data(0))
        arrive(sim, rcv, data(1, ecn=ECN.ECT0, ce=True))
        arrive(sim, rcv, data(2, ecn=ECN.ECT1, ce=True))
        assert [a.ece for a in acks] == [False, False, False]
        assert rcv.ce_received == 2

    def test_ce_counter(self, sim, acks):
        rcv = make_receiver(sim, acks, ecn_mode="scalable")
        arrive(sim, rcv, data(0, ecn=ECN.ECT1, ce=True))
        arrive(sim, rcv, data(1, ecn=ECN.ECT1, ce=True))
        assert rcv.ce_received == 2
