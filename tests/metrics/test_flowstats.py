"""Unit tests for per-flow accounting."""

import pytest

from repro.metrics.flowstats import FlowRecord, FlowTable


class TestFlowRecord:
    def test_goodput_over_window(self):
        rec = FlowRecord(0, "cubic", mss_bytes=1000)
        rec.open_window(10.0)
        for _ in range(100):
            rec.on_segment(11.0)
        # 100 segments × 1000 B × 8 over 10 s = 80 kb/s.
        assert rec.goodput_bps(20.0) == pytest.approx(80_000.0)

    def test_segments_before_window_excluded(self):
        rec = FlowRecord(0, "cubic", mss_bytes=1000)
        rec.on_segment(1.0)
        rec.open_window(10.0)
        assert rec.goodput_bps(20.0) == 0.0

    def test_goodput_zero_without_window(self):
        rec = FlowRecord(0, "cubic", mss_bytes=1000)
        rec.on_segment(1.0)
        assert rec.goodput_bps(10.0) == 0.0


class TestFlowTable:
    def test_add_and_lookup(self):
        table = FlowTable()
        rec = table.add(1, "dctcp", 1448)
        assert table[1] is rec
        assert len(table) == 1

    def test_duplicate_id_rejected(self):
        table = FlowTable()
        table.add(1, "dctcp", 1448)
        with pytest.raises(ValueError):
            table.add(1, "cubic", 1448)

    def test_labels_and_by_label(self):
        table = FlowTable()
        table.add(1, "dctcp", 1448)
        table.add(2, "cubic", 1448)
        table.add(3, "cubic", 1448)
        assert table.labels() == ["cubic", "dctcp"]
        assert len(table.by_label("cubic")) == 2

    def test_goodputs_per_label(self):
        table = FlowTable()
        a1 = table.add(1, "a", 1000)
        a2 = table.add(2, "a", 1000)
        table.open_windows(0.0)
        a1.on_segment(1.0)
        assert len(table.goodputs("a", 10.0)) == 2
