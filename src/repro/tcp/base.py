"""ACK-clocked TCP sender base class.

This is the transport substrate standing in for the Linux kernel senders of
the paper's testbed.  It implements the mechanisms every congestion control
variant shares — slow start, congestion avoidance, NewReno-style fast
retransmit/recovery, retransmission timeout with exponential backoff, ECN
negotiation and the RFC 3168 ECE/CWR handshake — and delegates the three
things that differ between variants to overridable hooks:

* :meth:`TcpSender.ca_increase` — the additive-increase rule in congestion
  avoidance (Reno's ``+1/W`` per segment; Cubic's cubic/TCP-friendly
  target; DCTCP reuses Reno's).
* :meth:`TcpSender.reduction_factor` — the multiplicative-decrease factor
  for a congestion event (0.5 for Reno, 0.7 for Cubic/CReno, DCTCP's
  ``1 - α/2``).
* :meth:`TcpSender.on_round_end` — a once-per-window callback at the
  window boundary, used by DCTCP's marked-fraction EWMA.

The window laws these hooks produce are exactly the ones the paper's
Appendix A analyses: ``W = 1.22/√p`` (Reno), ``W = 1.68/√p`` (CReno),
``W = 1.17 R^¾ / p^¾`` (Cubic), ``W = 2/p`` (DCTCP under probabilistic
marking).  Sequence numbers are in segments (see :mod:`repro.net.packet`).

Each ACK arrives as its fields: the receiver pushes them straight onto
the engine's heap as the arguments of :meth:`TcpSender.on_ack`, so no
ACK packet is ever built.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.net.packet import DEFAULT_MSS, ECN, HEADER_BYTES, Packet
from repro.sim.engine import Event, Simulator

__all__ = ["TcpSender", "ECNMode", "MIN_RTO", "INITIAL_RTO"]

#: Linux's minimum retransmission timeout (RTO) in seconds.
MIN_RTO = 0.2

#: RFC 6298 initial RTO before any RTT sample exists.
INITIAL_RTO = 1.0

#: How a sender negotiates and reacts to ECN.
ECNMode = str  # one of "off", "classic", "scalable"

#: The ECN codepoint each mode puts on its data segments.
_DATA_CODEPOINT = {"off": ECN.NOT_ECT, "classic": ECN.ECT0, "scalable": ECN.ECT1}
_ECN_MODES = tuple(_DATA_CODEPOINT)


class TcpSender:
    """Window-based TCP sender with pluggable congestion control.

    Parameters
    ----------
    sim:
        The driving simulator.
    flow_id:
        Unique flow identifier stamped on every packet.
    transmit:
        Callback injecting a packet into the network (the dumbbell
        topology points this at the bottleneck queue).
    mss:
        Payload bytes per segment.
    ecn_mode:
        ``"off"`` — Not-ECT packets, congestion signalled by loss only;
        ``"classic"`` — ECT(0) packets, RFC 3168 ECE/CWR, one window
        reduction per RTT (what the paper's "ECN-Cubic" uses);
        ``"scalable"`` — ECT(1) packets, accurate per-packet echo (the
        paper's modified DCTCP, Section 5).
    flow_size:
        Number of segments to transfer, or ``None`` for a long-running
        (bulk) flow as in the paper's steady-state experiments.
    initial_window:
        Initial congestion window in segments (Linux IW10 default).
    sack:
        Use selective acknowledgements (the receiver must enable them
        too): the sender keeps a scoreboard of SACKed segments, fills
        holes directly during recovery, and accounts SACKed segments out
        of the flight size.  Off by default — the paper-facing benchmarks
        use NewReno, and the SACK ablation quantifies the difference.
    """

    #: Multiplicative-decrease factor applied on packet loss.
    loss_beta = 0.5
    #: Multiplicative-decrease factor applied on a classic ECN signal.
    ecn_beta = 0.5
    #: Congestion windows never shrink below this many segments.
    min_cwnd = 2.0

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        transmit: Callable[[Packet], None],
        mss: int = DEFAULT_MSS,
        ecn_mode: ECNMode = "off",
        flow_size: Optional[int] = None,
        initial_window: float = 10.0,
        on_complete: Optional[Callable[[float], None]] = None,
        sack: bool = False,
    ):
        if ecn_mode not in _ECN_MODES:
            raise ValueError(f"ecn_mode must be one of {_ECN_MODES} (got {ecn_mode!r})")
        if mss <= 0:
            raise ValueError(f"mss must be positive (got {mss})")
        if flow_size is not None and flow_size <= 0:
            raise ValueError(f"flow_size must be positive (got {flow_size})")
        self.sim = sim
        self.flow_id = flow_id
        self.transmit = transmit
        self.mss = mss
        self.ecn_mode = ecn_mode
        self._data_codepoint = _DATA_CODEPOINT[ecn_mode]
        self._classic_ecn = ecn_mode == "classic"
        self.flow_size = flow_size
        self.on_complete = on_complete

        # --- window state ------------------------------------------------
        self.cwnd = float(initial_window)
        self.ssthresh = math.inf
        self.una = 0            # oldest unacknowledged segment
        self.next_seq = 0       # next segment to send

        # --- loss recovery ------------------------------------------------
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0
        # NewReno window inflation: each duplicate ACK during recovery
        # signals a packet has left the network, permitting one new send.
        self._inflation = 0
        # SACK scoreboard: segments ≥ una known to have been received.
        self.sack = sack
        self._sacked: set[int] = set()
        self._rtx_episode: set[int] = set()

        # --- ECN state -----------------------------------------------------
        self._cwr_pending = False       # set CWR on next data packet
        self._ecn_reaction_point = -1   # suppress ECE reactions until una passes

        # --- round (window) tracking for per-RTT hooks ----------------------
        self._round_end = 0
        self._round_acked = 0
        self._round_marked = 0

        # --- RTT estimation / RTO -------------------------------------------
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._rto_event: Optional[Event] = None
        self._rto_deadline: Optional[float] = None
        self._backoff = 1

        # --- accounting -------------------------------------------------------
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.ecn_reductions = 0
        self.loss_reductions = 0
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self.started = False

    # ------------------------------------------------------------------
    # Congestion-control hooks (overridden by Reno/Cubic/DCTCP)
    # ------------------------------------------------------------------
    def ca_increase(self, acked: int) -> None:
        """Congestion-avoidance additive increase (default: Reno AIMD)."""
        self.cwnd += acked / self.cwnd

    def reduction_factor(self, kind: str) -> float:
        """Multiplicative-decrease factor for a congestion event.

        ``kind`` is ``"loss"``, ``"ecn"`` or ``"timeout"``.
        """
        return self.ecn_beta if kind == "ecn" else self.loss_beta

    def on_congestion_event(self, kind: str) -> None:
        """Extra bookkeeping on a congestion event (Cubic's epoch reset)."""

    def on_round_end(self, acked: int, marked: int) -> None:
        """Called once per window with that window's ACK/mark counts."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Begin transmitting at absolute time ``at``."""
        self.sim.at(at, self._start_now)

    def _start_now(self) -> None:
        self.started = True
        self.start_time = self.sim.now
        self._round_end = int(self.cwnd)
        self._maybe_send()

    def stop(self) -> None:
        """Cease transmitting (used by varying-traffic-intensity scenarios).

        In-flight data is abandoned; the retransmission timer is cancelled
        and the sender ignores further ACKs.
        """
        if not self.completed:
            self.completion_time = self.sim.now
        self._cancel_rto()

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def flight_size(self) -> int:
        return self.next_seq - self.una

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _maybe_send(self) -> None:
        # The window floor and the limited-transmit cap are plain
        # comparisons in the order ``max(1, w)`` and ``min(dupacks, 2)``
        # compare, so they pick the same value without a builtin call.
        if self.sack:
            # SACKed segments have left the network; the scoreboard gives
            # exact pipe accounting, so no inflation heuristics are needed.
            window = int(self.cwnd)
            in_flight = self.next_seq - self.una - len(self._sacked)
            budget = (window if window > 1 else 1) - in_flight
        else:
            # RFC 3042 limited transmit before recovery; NewReno inflation
            # during it.
            if self.in_recovery:
                extra = self._inflation
            else:
                extra = self.dupacks
                if extra > 2:
                    extra = 2
            window = int(self.cwnd + extra)
            budget = self.una + (window if window > 1 else 1) - self.next_seq
        # New segments are built here; _send_segment is for retransmissions.
        # ``next_seq`` and ``_cwr_pending`` are read per segment, because
        # ``transmit`` is any callable and may re-enter this sender.
        flow_id = self.flow_id
        flow_size = self.flow_size
        size = self.mss + HEADER_BYTES
        codepoint = self._data_codepoint
        now = self.sim.now
        transmit = self.transmit
        while budget > 0:
            seq = self.next_seq
            if flow_size is not None and seq >= flow_size:
                break
            # Positional: a keyword call builds a dict per segment.
            pkt = Packet(
                flow_id, size, seq, codepoint, codepoint, self._cwr_pending, now
            )
            self._cwr_pending = False
            self.segments_sent += 1
            # RFC 6298: start the timer only when it is not already running
            # (see _send_segment).
            if self._rto_deadline is None:
                self._arm_rto()
            transmit(pkt)
            self.next_seq += 1
            budget -= 1

    def _send_segment(self, seq: int) -> None:
        """Retransmit segment ``seq`` (new segments are sent by
        :meth:`_maybe_send`)."""
        codepoint = self._data_codepoint
        pkt = Packet(
            self.flow_id, self.mss + HEADER_BYTES, seq, codepoint, codepoint,
            self._cwr_pending, self.sim.now, 0.0, True,
        )
        self._cwr_pending = False
        self.segments_sent += 1
        self.retransmits += 1
        # RFC 6298: start the timer only when it is not already running —
        # re-arming per transmission would let a steady trickle of sends
        # postpone the timeout of a lost retransmission indefinitely.
        if self._rto_deadline is None:
            self._arm_rto()
        self.transmit(pkt)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, ack: int, ece: bool, send_time: float, sack: tuple) -> None:
        """Process one ACK, given as its fields: the cumulative ``ack``,
        the ECE flag, the echoed ``send_time`` and the SACK blocks.

        The receiver pushes these four fields onto the heap as the
        entry's arguments (see :class:`~repro.tcp.receiver.TcpReceiver`),
        so no ACK :class:`~repro.net.packet.Packet` is built.  Any ACK
        after completion is ignored.
        """
        if self.completion_time is not None:
            return
        now = self.sim.now
        # RTT sample and RTO (RFC 6298).
        rtt = now - send_time
        if rtt > 0:
            srtt = self.srtt
            if srtt is None:
                self.srtt = srtt = rtt
                self.rttvar = rtt / 2
            else:
                self.rttvar = 0.75 * self.rttvar + 0.25 * abs(srtt - rtt)
                self.srtt = srtt = 0.875 * srtt + 0.125 * rtt
            rto = srtt + 4 * self.rttvar
            self.rto = rto if rto > MIN_RTO else MIN_RTO  # max(MIN_RTO, rto)
        if self.sack:
            # Rebuild the scoreboard from the ACK's (start, end) blocks.
            sacked = set()
            for start, end in sack:
                if end >= ack:
                    sacked.update(range(max(start, ack), end + 1))
            self._sacked = sacked

        if ack > self.una:
            acked = ack - self.una
            self.una = ack
            # After an RTO rewound next_seq, a late ACK for the original
            # transmissions can overtake it; never send below una.
            if self.next_seq < self.una:
                self.next_seq = self.una
            self.dupacks = 0
            self._backoff = 1

            self._round_acked += acked
            if ece:
                self._round_marked += acked

            if self.in_recovery:
                if self.una >= self.recover_point:
                    self.in_recovery = False
                    self._inflation = 0
                    self._rtx_episode.clear()
                    self.cwnd = max(self.min_cwnd, self.ssthresh)
                elif self.sack:
                    self._sack_retransmit()
                else:
                    # NewReno partial ACK: the next hole was also lost.
                    # Deflate by what the partial ACK removed from flight.
                    self._inflation = max(0, self._inflation - acked)
                    self._send_segment(self.una)
            elif self.cwnd < self.ssthresh:
                # Slow start, switching to CA at ssthresh.
                grow = min(acked, max(0.0, self.ssthresh - self.cwnd))
                self.cwnd += grow
                rest = acked - grow
                if rest > 0:
                    self.ca_increase(int(rest))
            else:
                self.ca_increase(acked)

            if self._classic_ecn and ece:
                self._ecn_reaction()
            if self.una >= self._round_end:
                self.on_round_end(self._round_acked, self._round_marked)
                self._round_acked = 0
                self._round_marked = 0
                self._round_end = self.next_seq

            if self.flow_size is not None and self.una >= self.flow_size:
                self._complete()
                return
            if self.next_seq > self.una:
                # Re-arm the RTO: a deadline write, and a heap event only
                # when none is pending or the deadline moved earlier (see
                # _arm_rto).
                deadline = now + self.rto * self._backoff
                self._rto_deadline = deadline
                ev = self._rto_event
                if ev is None:
                    self._rto_event = self.sim.at(deadline, self._on_rto)
                elif ev.time > deadline:
                    ev.cancel()
                    self._rto_event = self.sim.at(deadline, self._on_rto)
            else:
                self._rto_deadline = None  # lazy disarm (see _cancel_rto)
        else:
            self.dupacks += 1
            if self.in_recovery:
                self._inflation += 1
                if self.sack:
                    self._sack_retransmit()
            if self._classic_ecn and ece:
                self._ecn_reaction()
            if self.dupacks == 3 and not self.in_recovery:
                self._fast_retransmit()
        self._maybe_send()

    # ------------------------------------------------------------------
    # Congestion events
    # ------------------------------------------------------------------
    def _ecn_reaction(self) -> None:
        """Classic ECE: at most one window reduction per RTT (RFC 3168)."""
        if self.una <= self._ecn_reaction_point:
            return
        self._ecn_reaction_point = self.next_seq
        self.ecn_reductions += 1
        self._reduce("ecn")
        self._cwr_pending = True

    def _fast_retransmit(self) -> None:
        self.in_recovery = True
        self.recover_point = self.next_seq
        self.loss_reductions += 1
        self._inflation = 0
        self._rtx_episode.clear()
        self._reduce("loss")
        if self.sack:
            self._rtx_episode.add(self.una)
        self._send_segment(self.una)

    def _sack_retransmit(self) -> None:
        """Fill the lowest un-SACKed, not-yet-retransmitted hole (one per
        ACK — packet-conservation pacing of the repair).

        Standard SACK loss inference: only segments *below* the highest
        SACKed segment are considered lost; anything above it may simply
        still be in flight and must not be retransmitted speculatively.
        """
        if not self._sacked:
            return
        ceiling = min(self.recover_point, max(self._sacked))
        seq = self.una
        while seq < ceiling:
            if seq not in self._sacked and seq not in self._rtx_episode:
                self._rtx_episode.add(seq)
                self._send_segment(seq)
                return
            seq += 1

    def _reduce(self, kind: str) -> None:
        factor = self.reduction_factor(kind)
        self.on_congestion_event(kind)
        self.ssthresh = max(self.min_cwnd, self.cwnd * factor)
        self.cwnd = self.ssthresh

    # ------------------------------------------------------------------
    # RTO machinery (RFC 6298; the RTT sample is taken in on_ack)
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer at ``now + rto * backoff``.

        The timer is *lazy*: re-arming only moves the deadline field, and
        the already-scheduled heap event re-checks it when it fires —
        rescheduling itself if the deadline moved out, doing nothing if
        the timer was disarmed.  This turns the per-ACK cancel + push
        churn (the single largest source of heap traffic in a steady
        transfer) into a plain attribute write; a real heap event is only
        created when none is pending, or in the rare case the new
        deadline is *earlier* than the pending event.
        """
        deadline = self.sim.now + self.rto * self._backoff
        self._rto_deadline = deadline
        ev = self._rto_event
        if ev is None:
            self._rto_event = self.sim.at(deadline, self._on_rto)
        elif ev.time > deadline:
            ev.cancel()
            self._rto_event = self.sim.at(deadline, self._on_rto)

    def _cancel_rto(self) -> None:
        # Lazy disarm: the pending event (if any) sees the cleared
        # deadline when it fires and drops itself.
        self._rto_deadline = None

    def _on_rto(self) -> None:
        self._rto_event = None
        deadline = self._rto_deadline
        if deadline is None:
            return  # disarmed since this wakeup was scheduled
        if self.sim.now < deadline:
            # Stale wakeup: ACKs pushed the deadline out; sleep again.
            self._rto_event = self.sim.at(deadline, self._on_rto)
            return
        self._rto_deadline = None
        if self.completed or self.flight_size == 0:
            return
        self.timeouts += 1
        self.on_congestion_event("timeout")
        self.ssthresh = max(self.min_cwnd, self.cwnd * self.reduction_factor("timeout"))
        self.cwnd = 1.0
        self.in_recovery = False
        self.dupacks = 0
        self._inflation = 0
        # Discard SACK state on timeout (a renege-safe restart, RFC 2018).
        self._sacked.clear()
        self._rtx_episode.clear()
        self._backoff = min(self._backoff * 2, 64)
        # Go back to the oldest hole; ACK clocking restarts from there.
        self.next_seq = self.una
        self._send_segment(self.una)
        self.next_seq = self.una + 1

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete(self) -> None:
        self.completion_time = self.sim.now
        self._cancel_rto()
        if self.on_complete is not None:
            self.on_complete(self.sim.now - (self.start_time or 0.0))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} flow={self.flow_id} cwnd={self.cwnd:.1f} "
            f"una={self.una} next={self.next_seq}>"
        )
