"""TCP receiver: cumulative ACKs, delayed ACKing, ECN echo.

Two echo disciplines are implemented, selected by the sender's ECN mode:

* **Classic (RFC 3168)** — receiving a CE mark latches the ECE flag on
  every subsequent ACK until a data packet with CWR arrives.  This is the
  coarse one-signal-per-RTT feedback that Classic controls (Reno, Cubic,
  ECN-Cubic) respond to.
* **Accurate / DCTCP** — the ECE flag on each ACK reflects whether the
  segments it covers were CE-marked.  With delayed ACKs the DCTCP state
  machine is used: a change in CE state forces out an immediate ACK for
  the previous run, so every ACK covers a run of uniformly-(un)marked
  segments and the sender can reconstruct the exact marked fraction its
  ``α`` EWMA needs.

Out-of-order segments are buffered and trigger immediate duplicate ACKs so
the sender's fast-retransmit machinery works; this mirrors the mandatory
quickack-on-reordering behaviour of real stacks.

Each ACK crosses the uncongested reverse path as one uncancellable heap
entry ``ack_delay`` seconds out whose arguments are the ACK's fields,
``(ack, ece, send_time, sack)``, for ``on_ack`` (the sender's
:meth:`~repro.tcp.base.TcpSender.on_ack`, or a test's wrapper around
it), pushed with no :meth:`~repro.sim.engine.Simulator.post` frame and
no packet.  The constructor checks the delay where it enters, because
the push has no check of its own.

The delayed-ACK wakeup is pushed the same way: nothing ever cancels it
(a disarm clears the deadline, and the wakeup drops itself when it
fires), so it is a plain ``(deadline, seq, _on_delack, ())`` entry with
a pending flag in place of a cancellable
:class:`~repro.sim.engine.Event`.
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import Callable, Optional

from repro.net.packet import ECN, Packet
from repro.sim.engine import Simulator
from repro.tcp.base import _ECN_MODES

__all__ = ["TcpReceiver", "DELACK_TIMEOUT"]

#: Delayed-ACK timer (Linux uses 40 ms by default).
DELACK_TIMEOUT = 0.040

# A module global reads faster than the enum class attribute per segment.
_CE = ECN.CE


class TcpReceiver:
    """Receives data segments and generates ACKs on the reverse path.

    Parameters
    ----------
    sim:
        The driving simulator.
    flow_id:
        Flow this receiver terminates.
    ack_delay:
        One-way delay of the reverse path, in seconds: each ACK reaches
        ``on_ack`` this long after it is sent.  Must be non-negative
        and finite.
    on_ack:
        Called as ``on_ack(ack, ece, send_time, sack)`` with each ACK's
        fields: the sender's :meth:`~repro.tcp.base.TcpSender.on_ack`.
    ecn_mode:
        Must match the sender's: "off", "classic" or "scalable".
    delayed_acks:
        ACK every second in-order segment (with a 40 ms cap) instead of
        every segment.  Defaults on, as in Linux.
    sack:
        Advertise selective acknowledgements: each ACK carries the
        out-of-order data above the cumulative ACK as ``(start, end)``
        blocks (inclusive), which a SACK-enabled sender uses as its
        scoreboard.
    """

    #: Maximum SACK blocks advertised per ACK.  Real stacks fit ~3 in the
    #: TCP options; we allow more since each hole costs one block and the
    #: simulator has no option-space constraint, but still bound it.
    SACK_LIMIT = 16

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        ack_delay: float,
        on_ack: Callable[[int, bool, float, tuple], None],
        ecn_mode: str = "off",
        delayed_acks: bool = True,
        sack: bool = False,
    ):
        if ecn_mode not in _ECN_MODES:
            raise ValueError(f"ecn_mode must be one of {_ECN_MODES} (got {ecn_mode!r})")
        # Also rejects NaN, which no comparison orders, and an infinite
        # delay, after which no ACK would ever arrive.
        if not 0 <= ack_delay < inf:
            raise ValueError(
                f"ACK delay must be non-negative and finite (got {ack_delay})"
            )
        self.sack = sack
        self.sim = sim
        self.flow_id = flow_id
        self.ack_delay = ack_delay
        self.on_ack = on_ack
        # The engine's heap and seq handles (never rebound).
        self._heap = sim.heap
        self._seq = sim.seq
        self.ecn_mode = ecn_mode
        # Per-segment echo discipline, settled here rather than compared
        # as strings per segment.
        self._classic = ecn_mode == "classic"
        self._scalable = ecn_mode == "scalable"
        self.delayed_acks = delayed_acks

        self.rcv_next = 0
        self._ooo: set[int] = set()

        # Classic RFC 3168 echo state.
        self._ece_latched = False
        # DCTCP accurate-echo state.
        self._ce_state = False

        self._pending = 0               # in-order segments not yet ACKed
        self._pending_ts = 0.0          # timestamp to echo on the next ACK
        self._delack_armed = False      # a wakeup entry is in the heap
        self._delack_deadline: Optional[float] = None
        # The wakeup, bound once rather than per push.
        self._delack_wakeup = self._on_delack

        #: In-order segments delivered to the application; goodput
        #: accounting (:class:`~repro.metrics.flowstats.FlowRecord`)
        #: reads it.
        self.segments_received = 0
        self.duplicates = 0
        self.ce_received = 0
        self.acks_sent = 0

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def deliver(self, pkt: Packet) -> None:
        """Receive one data segment from the forward path."""
        ce = pkt.ecn is _CE
        if ce:
            self.ce_received += 1
        if self._classic:
            if ce:
                self._ece_latched = True
            if pkt.cwr:
                self._ece_latched = False
        elif self._scalable and ce != self._ce_state:
            # DCTCP state machine: flush the previous run immediately so
            # each ACK covers segments with uniform CE-ness.
            if self._pending > 0:
                self._send_ack()
            self._ce_state = ce

        if pkt.seq == self.rcv_next:
            # The arriving segment plus any buffered segments it releases
            # are all delivered to the application now.
            delivered = 1
            self.rcv_next += 1
            while self.rcv_next in self._ooo:
                self._ooo.remove(self.rcv_next)
                self.rcv_next += 1
                delivered += 1
            self.segments_received += delivered
            self._pending += 1
            self._pending_ts = pkt.send_time
            if self._ooo:
                # Filling a hole while more holes remain: ACK immediately.
                self._send_ack()
            elif not self.delayed_acks or self._pending >= 2:
                self._send_ack()
            elif self._delack_deadline is None:
                # Start the delayed-ACK timer, lazily like the sender's
                # RTO: arming writes a deadline, and the wakeup (one per
                # receiver, pushed only when none is in the heap)
                # re-checks it when it fires, so the every-other-ACK
                # disarm + re-arm cycle never touches the heap.
                deadline = self.sim.now + DELACK_TIMEOUT
                self._delack_deadline = deadline
                if not self._delack_armed:
                    self._delack_armed = True
                    heappush(
                        self._heap,
                        (deadline, next(self._seq), self._delack_wakeup, ()),
                    )
        elif pkt.seq > self.rcv_next:
            self._ooo.add(pkt.seq)
            self._pending_ts = pkt.send_time
            self._send_ack()  # immediate duplicate ACK
        else:
            self.duplicates += 1
            self._pending_ts = pkt.send_time
            self._send_ack()  # already have it; re-ACK

    # ------------------------------------------------------------------
    # ACK generation
    # ------------------------------------------------------------------
    def _sack_blocks(self) -> tuple:
        """Contiguous runs of the out-of-order set as (start, end) blocks."""
        seqs = sorted(self._ooo)
        blocks = []
        start = prev = seqs[0]
        for s in seqs[1:]:
            if s == prev + 1:
                prev = s
                continue
            blocks.append((start, prev))
            if len(blocks) >= self.SACK_LIMIT:
                return tuple(blocks)
            start = prev = s
        blocks.append((start, prev))
        return tuple(blocks[: self.SACK_LIMIT])

    def _send_ack(self) -> None:
        # Lazy delayed-ACK disarm: a pending wakeup sees the cleared
        # deadline and drops itself (or re-sleeps if re-armed later).
        self._delack_deadline = None
        sack_info: tuple = ()
        if self.sack and self._ooo:
            sack_info = self._sack_blocks()
        # Only the classic mode latches and only the scalable mode tracks
        # CE state, so at most one of the two ECE sources is ever set.
        ece = self._ece_latched or self._ce_state
        self._pending = 0
        self.acks_sent += 1
        heappush(
            self._heap,
            (
                self.sim.now + self.ack_delay, next(self._seq), self.on_ack,
                (self.rcv_next, ece, self._pending_ts, sack_info),
            ),
        )

    def _on_delack(self) -> None:
        deadline = self._delack_deadline
        if deadline is None:
            self._delack_armed = False
            return  # disarmed since this wakeup was pushed
        if self.sim.now < deadline:
            # Stale wakeup for an earlier arming; sleep until the live one.
            heappush(self._heap, (deadline, next(self._seq), self._delack_wakeup, ()))
            return
        self._delack_armed = False
        self._delack_deadline = None
        if self._pending > 0:
            self._send_ack()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TcpReceiver flow={self.flow_id} rcv_next={self.rcv_next}>"
