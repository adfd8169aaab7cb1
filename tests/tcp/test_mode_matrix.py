"""Every ECN mode, with and without SACK, over the one ACK hop.

Each ACK reaches the sender as its fields, pushed by the receiver one
way after it is sent.  The same segment arrivals (a hole, CE marks and,
in the classic mode, the CWR that answers them) drive one flow of each
mode with and without SACK; every branch they are meant to reach must
show in the ACKs and in the sender's counters.
"""

from typing import NamedTuple

import pytest

from repro.sim.engine import Simulator
from repro.tcp import DctcpSender, EcnCubicSender, RenoSender
from tests.tcp.helpers import DROP, FORWARD, MARK, Loopback

#: One-way delay of each hop.
ONE_WAY = 0.01

SENDER_FOR_MODE = {"off": RenoSender, "classic": EcnCubicSender, "scalable": DctcpSender}

#: The hole: the first transmission of this segment is lost.
LOST_SEQ = 5
#: CE-marked on first transmission (ECN-capable modes only).
MARKED_SEQS = {12, 13, 14, 15, 30, 31, 44}


class Arrival(NamedTuple):
    """One ACK at the sender, and the sender's scoreboard after it."""

    sent: float  # the echoed send time
    arrived: float
    ece: bool
    blocks: tuple
    scoreboard: set


def _impair(ecn: bool, cwr_sent: list):
    lost = set()

    def verdict(pkt):
        cwr_sent.append(pkt.cwr)
        if pkt.is_retransmit:
            return FORWARD
        if pkt.seq == LOST_SEQ and not lost:
            lost.add(pkt.seq)
            return DROP
        if ecn and pkt.seq in MARKED_SEQS:
            return MARK
        return FORWARD

    return verdict


@pytest.mark.parametrize("sack", [False, True], ids=["nosack", "sack"])
@pytest.mark.parametrize("mode", sorted(SENDER_FOR_MODE))
def test_hole_and_marks_recover_over_the_ack_hop(mode, sack):
    sim = Simulator()
    cwr_sent: list = []
    lb = Loopback(
        sim,
        SENDER_FOR_MODE[mode],
        rtt=2 * ONE_WAY,
        ecn_mode=mode,
        flow_size=60,
        delayed_acks=True,
        interceptor=_impair(mode != "off", cwr_sent),
        sack=sack,
    )
    sender, receiver = lb.sender, lb.receiver
    arrivals = []

    def on_ack(ack, ece, send_time, blocks):
        sender.on_ack(ack, ece, send_time, blocks)
        arrivals.append(Arrival(send_time, sim.now, ece, blocks, set(sender._sacked)))

    receiver.on_ack = on_ack
    sender.start(0.0)
    sim.run(5.0)

    # Every ACK the receiver sent reached on_ack; the quickest took the
    # two one-way hops after the segment whose timestamp it echoes left.
    assert len(arrivals) == receiver.acks_sent > 30
    quickest = min(a.arrived - a.sent for a in arrivals)
    assert quickest == pytest.approx(2 * ONE_WAY)
    assert sender.completed and sender.una == receiver.rcv_next == 60
    assert sender.retransmits >= 1 and sender.loss_reductions == 1
    if sack:
        assert any(a.blocks for a in arrivals)
        assert any(a.scoreboard for a in arrivals)
    else:
        assert all(a.blocks == () for a in arrivals)
    if mode == "off":
        assert not any(a.ece for a in arrivals)
        assert sender.ecn_reductions == 0
    else:
        assert any(a.ece for a in arrivals)
        assert sender.ecn_reductions >= 1
    assert any(cwr_sent) == (mode == "classic")
