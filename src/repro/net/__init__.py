"""Network substrate: packets, ECN, FIFO queue with AQM hook, links, pipes,
and the fault-injection layer (adverse pipes + scriptable fault schedules)."""

from repro.net.faults import (
    AqmStallFault,
    AqmTimerJitterFault,
    BurstLossFault,
    CorruptionFault,
    DuplicatingPipe,
    Fault,
    FaultInjector,
    GilbertElliottLoss,
    GilbertElliottPipe,
    LinkFlapFault,
    ReorderingPipe,
    parse_fault_spec,
)
from repro.net.link import Link, Sink
from repro.net.node import CountingSink
from repro.net.packet import ACK_SIZE, DEFAULT_MSS, ECN, HEADER_BYTES, Packet
from repro.net.pipe import DropPipe, LossyPipe, Pipe
from repro.net.queue import AQMQueue, QueueStats

__all__ = [
    "Packet",
    "ECN",
    "DEFAULT_MSS",
    "ACK_SIZE",
    "HEADER_BYTES",
    "AQMQueue",
    "QueueStats",
    "Link",
    "Sink",
    "Pipe",
    "DropPipe",
    "LossyPipe",
    "GilbertElliottLoss",
    "GilbertElliottPipe",
    "ReorderingPipe",
    "DuplicatingPipe",
    "Fault",
    "LinkFlapFault",
    "BurstLossFault",
    "CorruptionFault",
    "AqmStallFault",
    "AqmTimerJitterFault",
    "FaultInjector",
    "parse_fault_spec",
    "CountingSink",
]
