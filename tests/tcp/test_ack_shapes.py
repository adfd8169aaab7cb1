"""The sender's two ACK shapes run one logic.

On the dumbbell the receiver pushes each ACK's fields straight onto the
heap as the arguments of ``TcpSender.on_ack``; a reverse path built by
hand hands an ACK ``Packet`` to ``TcpSender.deliver``, which passes its
fields on.  The same segment arrivals (a hole, CE marks and, in the
classic mode, the CWR that answers them) go through a receiver on each
path, and after every ACK both senders must hold the same state.
"""

import pytest

from repro.sim.engine import Simulator
from repro.tcp import DctcpSender, EcnCubicSender, RenoSender
from tests.tcp.helpers import DROP, FORWARD, MARK, Loopback

#: One-way delay of each path; the loopback's reverse pipe posts its ACK
#: packet this far out, and the pushed path pushes the fields as far.
ONE_WAY = 0.01

SENDER_FOR_MODE = {"off": RenoSender, "classic": EcnCubicSender, "scalable": DctcpSender}

#: The hole: the first transmission of this segment is lost.
LOST_SEQ = 5
#: CE-marked on first transmission (ECN-capable modes only).
MARKED_SEQS = {12, 13, 14, 15, 30, 31, 44}


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


def _state(sender):
    """Everything the sender holds, with its RTO event read as a time."""
    state = {
        key: value
        for key, value in vars(sender).items()
        if key not in ("sim", "transmit", "_rto_event", "on_complete")
    }
    event = sender._rto_event
    state["rto_event_time"] = None if event is None else event.time
    state["now"] = sender.sim.now
    return state


def _run(mode: str, sack: bool, pushed: bool):
    """Drive one flow; the sender's state after each ACK, and the sender."""
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
    sender = lb.sender
    states = []
    if pushed:

        def on_ack(ack, ece, send_time, sack_blocks):
            sender.on_ack(ack, ece, send_time, sack_blocks)
            states.append(_state(sender))

        lb.receiver.set_ack_delay(ONE_WAY, on_ack)
    else:

        class Probe:
            def deliver(self, ack):
                sender.deliver(ack)
                states.append(_state(sender))

        lb.rev.sink = Probe()
    sender.start(0.0)
    sim.run(5.0)
    return states, sender, cwr_sent


@pytest.mark.parametrize("sack", [False, True], ids=["nosack", "sack"])
@pytest.mark.parametrize("mode", sorted(SENDER_FOR_MODE))
def test_pushed_fields_and_packet_run_one_logic(mode, sack):
    packet_states, _, packet_cwr = _run(mode, sack, pushed=False)
    pushed_states, pushed_sender, pushed_cwr = _run(mode, sack, pushed=True)

    assert len(pushed_states) == len(packet_states) > 30
    for index, (a, b) in enumerate(zip(packet_states, pushed_states)):
        assert a == b, f"sender state differs after ACK {index}"
    assert pushed_cwr == packet_cwr
    # The arrivals did reach every branch the comparison is meant to cover.
    assert pushed_sender.completed and pushed_sender.una == 60
    assert pushed_sender.retransmits >= 1 and pushed_sender.loss_reductions == 1
    if sack:
        assert any(state["_sacked"] for state in pushed_states)
    if mode == "off":
        assert pushed_sender.ecn_reductions == 0
    else:
        assert pushed_sender.ecn_reductions >= 1
    if mode == "classic":
        assert any(pushed_cwr)
