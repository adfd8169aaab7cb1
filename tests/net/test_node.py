"""Unit tests for endpoint sinks."""

from repro.net.node import CountingSink
from tests.conftest import make_packet


class TestCountingSink:
    def test_counts_packets_and_bytes(self):
        sink = CountingSink()
        sink.deliver(make_packet(size=100))
        sink.deliver(make_packet(size=200))
        assert sink.packets == 2
        assert sink.bytes == 300

    def test_per_flow_bytes(self):
        sink = CountingSink()
        sink.deliver(make_packet(flow_id=1, size=100))
        sink.deliver(make_packet(flow_id=1, size=100))
        sink.deliver(make_packet(flow_id=2, size=50))
        assert sink.per_flow_bytes == {1: 200, 2: 50}
