"""Per-flow accounting: goodput, windows, marks and drops.

One :class:`FlowRecord` per flow collects what the receiver delivers
in-order (goodput — what Figures 15, 19 and 20 report) and what the
sender experienced (reductions, retransmits).  :class:`FlowTable` groups
records by traffic class so the rate-balance ratios can be computed per
(class A, class B) pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional


__all__ = ["FlowRecord", "FlowTable"]


class FlowRecord:
    """Accounting for one flow over an observation window."""

    def __init__(self, flow_id: int, label: str, mss_bytes: int):
        self.flow_id = flow_id
        self.label = label
        self.mss_bytes = mss_bytes
        self.segments_delivered = 0
        self._window_start: Optional[float] = None
        self._window_segments = 0

    def on_segment(self, now: float) -> None:
        """Receiver callback: one in-order segment delivered."""
        self.segments_delivered += 1
        if self._window_start is not None:
            self._window_segments += 1

    def open_window(self, now: float) -> None:
        """Begin the measurement window (after warm-up)."""
        self._window_start = now
        self._window_segments = 0

    def goodput_bps(self, now: float) -> float:
        """Goodput over the open measurement window, in bits/second."""
        if self._window_start is None or now <= self._window_start:
            return 0.0
        return self._window_segments * self.mss_bytes * 8.0 / (now - self._window_start)


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
