"""Network substrate: packets, ECN, FIFO queue with AQM hook, the
bottleneck link, and the fault-injection layer (scriptable fault
schedules at the bottleneck)."""

from repro.net.faults import (
    AqmStallFault,
    AqmTimerJitterFault,
    BurstLossFault,
    CorruptionFault,
    Fault,
    FaultInjector,
    GilbertElliottLoss,
    LinkFlapFault,
    parse_fault_spec,
)
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
    "GilbertElliottLoss",
    "Fault",
    "LinkFlapFault",
    "BurstLossFault",
    "CorruptionFault",
    "AqmStallFault",
    "AqmTimerJitterFault",
    "FaultInjector",
    "parse_fault_spec",
]
