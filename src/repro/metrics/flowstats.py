"""Per-flow goodput accounting.

One :class:`FlowRecord` per flow measures the goodput of what its
receiver delivers in order (what Figures 15, 19 and 20 report).
:class:`FlowTable` groups records by traffic class so the rate-balance
ratios can be computed per (class A, class B) pair.

A record reads its receiver's ``segments_received`` counter, the count of
in-order segments delivered, and snapshots it when the window opens; the
receiver's per-segment path makes no call for goodput accounting.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


__all__ = ["FlowRecord", "FlowTable"]


class FlowRecord:
    """Accounting for one flow over an observation window.

    :attr:`receiver` is the flow's receiver, or anything with a
    ``segments_received`` count; a flow without one (UDP) has goodput 0.
    """

    def __init__(self, flow_id: int, label: str, mss_bytes: int):
        self.flow_id = flow_id
        self.label = label
        self.mss_bytes = mss_bytes
        self.receiver: Optional[Any] = None
        self._window_start: Optional[float] = None
        self._window_base = 0

    def _segments(self) -> int:
        receiver = self.receiver
        return receiver.segments_received if receiver is not None else 0

    def open_window(self, now: float) -> None:
        """Begin the measurement window (after warm-up)."""
        self._window_start = now
        self._window_base = self._segments()

    def goodput_bps(self, now: float) -> float:
        """Goodput over the open measurement window, in bits/second."""
        if self._window_start is None or now <= self._window_start:
            return 0.0
        segments = self._segments() - self._window_base
        return segments * self.mss_bytes * 8.0 / (now - self._window_start)


class FlowTable:
    """All flows of an experiment, grouped by class label."""

    def __init__(self) -> None:
        self._records: Dict[int, FlowRecord] = {}

    def add(self, flow_id: int, label: str, mss_bytes: int) -> FlowRecord:
        if flow_id in self._records:
            raise ValueError(f"flow id {flow_id} already registered")
        record = FlowRecord(flow_id, label, mss_bytes)
        self._records[flow_id] = record
        return record

    def __getitem__(self, flow_id: int) -> FlowRecord:
        return self._records[flow_id]

    def __len__(self) -> int:
        return len(self._records)

    def labels(self) -> List[str]:
        return sorted({r.label for r in self._records.values()})

    def by_label(self, label: str) -> List[FlowRecord]:
        return [r for r in self._records.values() if r.label == label]

    def open_windows(self, now: float) -> None:
        for record in self._records.values():
            record.open_window(now)

    def goodputs(self, label: str, now: float) -> List[float]:
        return [r.goodput_bps(now) for r in self.by_label(label)]
