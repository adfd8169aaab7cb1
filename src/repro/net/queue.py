"""FIFO bottleneck queue with an AQM hook and tail-drop backstop.

This models the router buffer of the paper's testbed (40 000 packets, i.e.
2.4 s at 200 Mb/s — Table 1).  The AQM is consulted on every enqueue; if it
neither drops nor the buffer overflows, the packet joins the FIFO.  All
traffic classes share this single queue, exactly as in the paper's
single-queue coexistence experiments ("In the network, all packets use the
same FIFO queue", Section 5).

Queue-delay estimation
----------------------
The queue's delay estimate is the exact conversion
``backlog_bytes * 8 / capacity_bps`` at the configured drain rate (what
the PIE RFC calls the known-drain-rate simplification, used by DOCSIS
PIE); :meth:`AQMQueue.set_capacity` tracks the capacity steps of
Figure 12.  PIE's measured departure-rate estimator belongs to PIE
(``PieAqm(dq_rate_estimator=True)``, as in Linux ``sch_pie``), which
observes departures through the AQM's ``on_dequeue`` hook.  The queue
binds that hook once, at construction, so a queue whose AQM needs no
departure observation makes no call for it per packet.

The per-packet *actual* sojourn time is additionally recorded at dequeue
time (difference of timestamps); that is the quantity whose distribution
Figures 14 and 16 report.  The dumbbell points
:attr:`AQMQueue.record_time` and :attr:`AQMQueue.record_sojourn` at the
bound ``append``s of its sojourn series' two ``array('d')`` buffers, so a
departure is recorded with no Python frame.  ``on_sojourn`` is the
general callback, for testbeds that split sojourns by packet (the DualQ
previews split them by traffic class).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.aqm.base import AQM, Decision
from repro.net.packet import Packet
from repro.sim.engine import Simulator

__all__ = ["AQMQueue", "QueueStats"]

# Module globals read faster than the enum class attributes per packet.
_DROP, _MARK = Decision.DROP, Decision.MARK


class QueueStats:
    """Arrival/departure/drop accounting for one queue."""

    __slots__ = (
        "arrived",
        "enqueued",
        "dequeued",
        "aqm_dropped",
        "tail_dropped",
        "fault_dropped",
        "ce_marked",
        "bytes_arrived",
        "bytes_dequeued",
    )

    def __init__(self) -> None:
        self.arrived = 0
        self.enqueued = 0
        self.dequeued = 0
        self.aqm_dropped = 0
        self.tail_dropped = 0
        self.fault_dropped = 0
        self.ce_marked = 0
        self.bytes_arrived = 0
        self.bytes_dequeued = 0

    @property
    def dropped(self) -> int:
        return self.aqm_dropped + self.tail_dropped + self.fault_dropped

    @property
    def decisions(self) -> int:
        """Arrivals past the fault gate and then the buffer limit, the
        two drops the queue applies before it asks its AQM for a verdict."""
        return self.arrived - self.fault_dropped - self.tail_dropped

    @property
    def passed(self) -> int:
        """AQM verdicts that neither marked nor dropped the packet."""
        return self.decisions - self.ce_marked - self.aqm_dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<QueueStats in={self.arrived} out={self.dequeued} "
            f"aqm_drop={self.aqm_dropped} tail_drop={self.tail_dropped} "
            f"fault_drop={self.fault_dropped} mark={self.ce_marked}>"
        )


class AQMQueue:
    """Single FIFO queue managed by an AQM, drained by a link.

    Parameters
    ----------
    sim:
        The simulator driving timestamps and the AQM's update timer.
    aqm:
        The active queue management algorithm; ``None`` means pure
        tail-drop.
    capacity_bps:
        Drain rate the queue-delay estimate divides the backlog by.
    buffer_packets:
        Hard tail-drop limit in packets (Table 1 uses 40 000).
    on_sojourn:
        Optional callback ``(now, sojourn_seconds, packet)`` invoked at each
        dequeue, for testbeds that need the packet with its sojourn.
    """

    def __init__(
        self,
        sim: Simulator,
        aqm: Optional[AQM],
        capacity_bps: float,
        buffer_packets: int = 40_000,
        on_sojourn: Optional[Callable[[float, float, Packet], None]] = None,
    ):
        if buffer_packets <= 0:
            raise ValueError(f"buffer must hold at least one packet (got {buffer_packets})")
        self.sim = sim
        self.aqm = aqm
        self.buffer_packets = buffer_packets
        self.set_capacity(capacity_bps)
        self.on_sojourn = on_sojourn
        #: Per-departure recorders called with the dequeue time and the
        #: packet's sojourn: the dumbbell binds them to its sojourn
        #: series' buffer ``append``s (both set, or both None).
        self.record_time: Optional[Callable[[float], None]] = None
        self.record_sojourn: Optional[Callable[[float], None]] = None
        self.stats = QueueStats()
        self._fifo: deque[Packet] = deque()
        #: The QueueView backlog in packets: the FIFO's own bound
        #: ``__len__``, so PIE's per-arrival read costs no Python frame.
        self.packet_length: Callable[[], int] = self._fifo.__len__
        self._bytes = 0
        self._wakeup: Optional[Callable[[], None]] = None
        #: Fault-injection gate: a predicate consulted before the AQM; a
        #: True return drops the arriving packet (counted separately from
        #: AQM/tail drops so loss attribution in reports stays honest).
        self._ingress_fault: Optional[Callable[[Packet], bool]] = None
        # The AQM verdict and departure hook, bound once (see the module
        # docstring); None where there is nothing to call.  The verdicts
        # are counted here, in ``stats``, and nowhere else.
        self._on_enqueue = aqm.on_enqueue if aqm is not None else None
        self._on_dequeue = aqm.on_dequeue if aqm is not None else None
        if aqm is not None:
            aqm.attach(sim, self)

    # ------------------------------------------------------------------
    # QueueView protocol (what the AQM can see)
    # ------------------------------------------------------------------
    def byte_length(self) -> int:
        return self._bytes

    def queue_delay(self) -> float:
        return self._bytes * 8.0 / self.capacity_bps

    def set_capacity(self, capacity_bps: float) -> None:
        """Set the drain rate the delay estimate divides by (the link
        calls this when its line rate changes)."""
        if not capacity_bps > 0:  # also rejects NaN
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Run the AQM decision and enqueue.  Returns False if dropped."""
        stats = self.stats
        stats.arrived += 1
        stats.bytes_arrived += packet.size

        if self._ingress_fault is not None and self._ingress_fault(packet):
            stats.fault_dropped += 1
            return False

        fifo = self._fifo
        if len(fifo) >= self.buffer_packets:
            stats.tail_dropped += 1
            return False

        if self._on_enqueue is not None:
            decision = self._on_enqueue(packet)
            if decision is _DROP:
                stats.aqm_dropped += 1
                return False
            if decision is _MARK:
                packet.mark_ce()
                stats.ce_marked += 1

        packet.enqueue_time = self.sim.now
        fifo.append(packet)
        self._bytes += packet.size
        stats.enqueued += 1
        # Only an empty queue can have an idle link waiting on it.
        if len(fifo) == 1 and self._wakeup is not None:
            self._wakeup()
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None if empty."""
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        size = packet.size
        self._bytes -= size
        now = self.sim.now
        stats = self.stats
        stats.dequeued += 1
        stats.bytes_dequeued += size
        if self._on_dequeue is not None:
            self._on_dequeue(packet, now)
        if self.record_time is not None:
            self.record_time(now)
            self.record_sojourn(now - packet.enqueue_time)
        if self.on_sojourn is not None:
            self.on_sojourn(now, now - packet.enqueue_time, packet)
        return packet

    def set_wakeup(self, fn: Callable[[], None]) -> None:
        """Register the link's 'queue became non-empty' notification.

        It fires on an enqueue into an empty queue only: a link drains a
        non-empty queue without being told, and a downed link restarts on
        its own when it comes back up.
        """
        self._wakeup = fn

    def set_ingress_fault(self, fn: Optional[Callable[[Packet], bool]]) -> None:
        """Install (or clear, with ``None``) a fault-injection drop gate.

        The predicate runs on every arrival before the AQM sees the
        packet; returning True drops it and increments
        ``stats.fault_dropped``.  Used by
        :class:`repro.net.faults.FaultInjector` for bursty-loss and
        corruption windows at the bottleneck.
        """
        self._ingress_fault = fn

    def __len__(self) -> int:
        return len(self._fifo)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AQMQueue pkts={len(self._fifo)} bytes={self._bytes}>"
