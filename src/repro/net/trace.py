"""Packet-event tracing.

A :class:`PacketTrace` collects timestamped records of what happened to
packets at the bottleneck — enqueue, dequeue, AQM drop, tail drop, CE
mark — like a tcpdump/qdisc-stats hybrid.  It attaches non-intrusively by
wrapping an :class:`~repro.net.queue.AQMQueue`'s entry points, so any
experiment can be traced without touching the datapath classes.  Packets
carry no identity of their own; the trace numbers each arrival itself.

Used for debugging, for tests that assert event *sequences* (not just
counters), and by downstream users who want packet-level visibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.net.packet import Packet
from repro.net.queue import AQMQueue

__all__ = ["TraceEvent", "PacketTrace", "TraceRecord"]


class TraceEvent(enum.Enum):
    ENQUEUE = "enqueue"
    DEQUEUE = "dequeue"
    AQM_DROP = "aqm_drop"
    TAIL_DROP = "tail_drop"
    CE_MARK = "ce_mark"


@dataclass(frozen=True)
class TraceRecord:
    """One traced packet event."""

    time: float
    event: TraceEvent
    flow_id: int
    seq: int
    size: int
    #: The packet's arrival number at the traced queue (0, 1, ...), the
    #: same on every record of that packet; -1 on the dequeue of a packet
    #: that was queued before the trace attached.
    ordinal: int


class PacketTrace:
    """Wraps a queue's enqueue/dequeue to record per-packet events.

    Parameters
    ----------
    queue:
        The queue to trace.  Its ``enqueue`` and ``dequeue`` methods are
        wrapped in place; call :meth:`detach` to restore them.
    limit:
        Optional cap on stored records (oldest dropped beyond it), to
        bound memory on long runs.
    """

    def __init__(self, queue: AQMQueue, limit: Optional[int] = None):
        if limit is not None and limit <= 0:
            raise ValueError(f"limit must be positive (got {limit})")
        self.queue = queue
        self.limit = limit
        self.records: List[TraceRecord] = []
        self._arrivals = 0
        #: Ordinals of the packets queued now, keyed by packet identity.
        self._queued: Dict[Packet, int] = {}
        self._orig_enqueue = queue.enqueue
        self._orig_dequeue = queue.dequeue
        queue.enqueue = self._traced_enqueue  # type: ignore[method-assign]
        queue.dequeue = self._traced_dequeue  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def _record(self, event: TraceEvent, pkt: Packet, ordinal: int) -> None:
        self.records.append(
            TraceRecord(
                time=self.queue.sim.now,
                event=event,
                flow_id=pkt.flow_id,
                seq=pkt.seq,
                size=pkt.size,
                ordinal=ordinal,
            )
        )
        if self.limit is not None and len(self.records) > self.limit:
            del self.records[0]

    def _traced_enqueue(self, pkt: Packet) -> bool:
        ordinal = self._arrivals
        self._arrivals += 1
        was_marked = pkt.ce_marked
        before_tail = self.queue.stats.tail_dropped
        # Registered first: an idle link dequeues the packet inside the
        # enqueue call, before it returns.
        self._queued[pkt] = ordinal
        accepted = self._orig_enqueue(pkt)
        if accepted:
            if pkt.ce_marked and not was_marked:
                self._record(TraceEvent.CE_MARK, pkt, ordinal)
            self._record(TraceEvent.ENQUEUE, pkt, ordinal)
        else:
            del self._queued[pkt]
            if self.queue.stats.tail_dropped > before_tail:
                self._record(TraceEvent.TAIL_DROP, pkt, ordinal)
            else:
                self._record(TraceEvent.AQM_DROP, pkt, ordinal)
        return accepted

    def _traced_dequeue(self) -> Optional[Packet]:
        pkt = self._orig_dequeue()
        if pkt is not None:
            self._record(TraceEvent.DEQUEUE, pkt, self._queued.pop(pkt, -1))
        return pkt

    def detach(self) -> None:
        """Restore the queue's original methods."""
        self.queue.enqueue = self._orig_enqueue  # type: ignore[method-assign]
        self.queue.dequeue = self._orig_dequeue  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def events(self, kind: Optional[TraceEvent] = None) -> Iterator[TraceRecord]:
        """Iterate records, optionally filtered by event kind."""
        for record in self.records:
            if kind is None or record.event is kind:
                yield record

    def count(self, kind: TraceEvent) -> int:
        return sum(1 for _ in self.events(kind))

    def flow(self, flow_id: int) -> List[TraceRecord]:
        return [r for r in self.records if r.flow_id == flow_id]

    def __len__(self) -> int:
        return len(self.records)
