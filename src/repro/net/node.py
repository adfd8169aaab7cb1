"""The counting endpoint sink.

The dumbbell harness wires TCP senders/receivers directly, but unresponsive
traffic (UDP) needs a trivial endpoint: a sink that counts what it absorbs.
"""

from __future__ import annotations

from repro.net.packet import Packet

__all__ = ["CountingSink"]


class CountingSink:
    """Absorbs packets, counting packets and bytes (per-flow optional)."""

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.per_flow_bytes: dict[int, int] = {}

    def deliver(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size
        self.per_flow_bytes[packet.flow_id] = (
            self.per_flow_bytes.get(packet.flow_id, 0) + packet.size
        )
