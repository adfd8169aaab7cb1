"""Packets and ECN codepoints.

The two-bit ECN field in the IP header is central to the paper: the coupled
PI+PI2 AQM (Figure 9) classifies traffic into *Scalable* and *Classic* by
ECN codepoint.  Following the paper (and the later RFC 9331 L4S identifier):

* ``NOT_ECT`` — not ECN-capable; congestion is signalled by **drop**.
* ``ECT0``    — Classic ECN (RFC 3168); a CE mark means the same as a drop.
* ``ECT1``    — Scalable / L4S traffic (the paper modified DCTCP to set
  ECT(1) instead of ECT(0)); a CE mark is a fine-grained congestion signal.
* ``CE``      — Congestion Experienced; set by the AQM on marking.  Both
  classes share CE, so the original codepoint is remembered out-of-band in
  :attr:`Packet.ect` for classification of already-marked packets — this
  mirrors how a real network node cannot distinguish the origin of a CE
  packet, which is why the paper's classifier maps ``ECT(1) or CE`` to the
  Scalable branch.
"""

from __future__ import annotations

import enum

__all__ = ["ECN", "Packet", "DEFAULT_MSS", "HEADER_BYTES"]

#: Default maximum segment size in bytes (Ethernet MTU minus IP+TCP headers).
DEFAULT_MSS = 1448

#: IP + TCP header overhead carried by every segment.
HEADER_BYTES = 52


class ECN(enum.IntEnum):
    """The two-bit ECN field of the IP header (RFC 3168 codepoints)."""

    NOT_ECT = 0b00
    ECT1 = 0b01
    ECT0 = 0b10
    CE = 0b11

    @property
    def ecn_capable(self) -> bool:
        """True if the transport declared ECN capability (ECT or CE)."""
        return self is not ECN.NOT_ECT


class Packet:
    """A simulated IP packet carrying a TCP data segment or UDP payload.

    Sequence numbers are in **segments**, not bytes: the paper's window
    equations (Appendix A) are all expressed in segments per RTT, and
    segment granularity is what the Linux stack effectively operates at for
    long flows.  ``seq`` is the index of the one segment a data packet
    carries.

    Only the forward path carries packets.  The reverse path is
    uncongested, so an ACK never queues anywhere and is no packet: the
    receiver pushes its fields, ``(ack, ece, send_time, sack)``, straight
    to the sender's :meth:`~repro.tcp.base.TcpSender.on_ack`.

    Every bottleneck packet constructs one of these, so the class is
    hand-written with ``__slots__``: the constructor is one call that
    keeps both checks, the positive size and the ECT rule.  Packets
    compare and hash by identity.

    Attributes
    ----------
    flow_id:
        Identifier of the owning flow; used for per-flow accounting.
    size:
        Size on the wire in bytes, including headers.
    seq:
        Segment sequence number (-1 on UDP packets).
    ecn:
        Current ECN field (mutated to :attr:`ECN.CE` by a marking AQM).
    ect:
        The original ECT codepoint, preserved across CE marking so the
        classifier can treat ``ECT(1) or CE`` as Scalable (Figure 9).
        Defaults to ``ecn`` when the caller sets only that.
    cwr:
        Congestion-Window-Reduced flag; stops the classic receiver's
        persistent ECE echo.
    enqueue_time / send_time:
        Timestamps stamped by the queue and the sender; the difference
        between dequeue and ``enqueue_time`` is the per-packet queue delay
        that Figures 14 and 16 report distributions of.
    is_retransmit:
        True on a segment the sender is sending again.
    """

    __slots__ = (
        "flow_id", "size", "seq", "ecn", "ect", "cwr", "send_time",
        "enqueue_time", "is_retransmit",
    )

    def __init__(
        self,
        flow_id: int,
        size: int = DEFAULT_MSS + HEADER_BYTES,
        seq: int = -1,
        ecn: ECN = ECN.NOT_ECT,
        ect: ECN = ECN.NOT_ECT,
        cwr: bool = False,
        send_time: float = 0.0,
        enqueue_time: float = 0.0,
        is_retransmit: bool = False,
    ) -> None:
        if not size > 0:  # also rejects NaN
            raise ValueError(f"packet size must be positive (got {size})")
        self.flow_id = flow_id
        self.size = size
        self.seq = seq
        self.ecn = ecn
        # Preserve the original ECT codepoint if the caller set only
        # `ecn`: NOT_ECT is 0, so `or` falls through to `ecn`.
        self.ect = ect or ecn
        self.cwr = cwr
        self.send_time = send_time
        self.enqueue_time = enqueue_time
        self.is_retransmit = is_retransmit

    # ------------------------------------------------------------------
    # ECN operations
    # ------------------------------------------------------------------
    @property
    def ecn_capable(self) -> bool:
        """Whether this packet may be CE-marked instead of dropped."""
        return self.ecn.ecn_capable

    @property
    def is_scalable(self) -> bool:
        """Classifier predicate from Figure 9: ``ECT(1) or CE`` → Scalable."""
        return self.ecn is ECN.ECT1 or (self.ecn is ECN.CE and self.ect is ECN.ECT1)

    def mark_ce(self) -> None:
        """Apply a CE congestion mark.  Only valid on ECN-capable packets."""
        if self.ecn is ECN.NOT_ECT:
            raise ValueError("cannot CE-mark a Not-ECT packet; it must be dropped")
        self.ecn = ECN.CE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Packet flow={self.flow_id} seq={self.seq} {self.ecn.name} {self.size}B>"
