"""Network substrate: packets, ECN, FIFO queue with AQM hook and the
bottleneck link."""

from repro.net.link import Link
from repro.net.packet import DEFAULT_MSS, ECN, HEADER_BYTES, Packet
from repro.net.queue import AQMQueue, QueueStats

__all__ = [
    "Packet",
    "ECN",
    "DEFAULT_MSS",
    "HEADER_BYTES",
    "AQMQueue",
    "QueueStats",
    "Link",
]
