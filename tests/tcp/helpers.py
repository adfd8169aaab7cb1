"""Loopback wiring for TCP unit tests.

Connects a sender and receiver over the dumbbell's two hops with no
bottleneck between them: each data segment is posted ``rtt / 2`` to the
receiver, after an optional per-packet interceptor, and the receiver
pushes each ACK's fields ``rtt / 2`` back to the sender's ``on_ack``.
Tests can drop or CE-mark specific segments deterministically and watch
the sender's reaction.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver

#: Interceptor verdicts.
FORWARD, DROP, MARK = "forward", "drop", "mark"


class Loopback:
    """Sender → (interceptor) → rtt/2 → receiver → rtt/2 → sender.on_ack."""

    def __init__(
        self,
        sim: Simulator,
        sender_cls=None,
        rtt: float = 0.1,
        ecn_mode: str = "off",
        flow_size: Optional[int] = None,
        delayed_acks: bool = False,
        interceptor: Optional[Callable[[Packet], str]] = None,
        sack: bool = False,
        **sender_kwargs,
    ):
        from repro.tcp.reno import RenoSender

        self.sim = sim
        self.one_way = rtt / 2
        self.interceptor = interceptor
        self.forwarded = 0
        self.dropped = 0

        self.sender = (sender_cls or RenoSender)(
            sim,
            flow_id=0,
            transmit=self._intercept,
            ecn_mode=ecn_mode,
            flow_size=flow_size,
            sack=sack,
            **sender_kwargs,
        )
        self.receiver = TcpReceiver(
            sim,
            0,
            self.one_way,
            self.sender.on_ack,
            ecn_mode=ecn_mode,
            delayed_acks=delayed_acks,
            sack=sack,
        )

    def _intercept(self, pkt: Packet) -> None:
        verdict = FORWARD if self.interceptor is None else self.interceptor(pkt)
        if verdict == DROP:
            self.dropped += 1
            return
        if verdict == MARK:
            pkt.mark_ce()
        self.forwarded += 1
        # Looked up per segment, so a test may wrap the receiver's deliver.
        self.sim.post(self.one_way, self.receiver.deliver, pkt)


def drop_seqs(*seqs: int) -> Callable[[Packet], str]:
    """Interceptor dropping the *first* transmission of the given seqs."""
    pending = set(seqs)

    def fn(pkt: Packet) -> str:
        if not pkt.is_retransmit and pkt.seq in pending:
            pending.remove(pkt.seq)
            return DROP
        return FORWARD

    return fn


def mark_seqs(*seqs: int) -> Callable[[Packet], str]:
    """Interceptor CE-marking the given data seqs (first transmission)."""
    pending = set(seqs)

    def fn(pkt: Packet) -> str:
        if not pkt.is_retransmit and pkt.seq in pending:
            pending.remove(pkt.seq)
            return MARK
        return FORWARD

    return fn
