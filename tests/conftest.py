"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.net.packet import ECN, Packet
from repro.net.queue import QueueStats
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=42)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(42)


def make_packet(
    flow_id: int = 0,
    seq: int = 0,
    size: int = 1500,
    ecn: ECN = ECN.NOT_ECT,
    **kwargs,
) -> Packet:
    """Convenience packet builder for unit tests."""
    return Packet(flow_id=flow_id, seq=seq, size=size, ecn=ecn, **kwargs)


class StubQueue:
    """Minimal QueueView for AQM unit tests: fixed delay and backlog."""

    def __init__(self, delay: float = 0.0, bytes_: int = 0, packets: int = 0):
        self.delay = delay
        self.bytes_ = bytes_
        self.packets = packets
        self.stats = QueueStats()

    def byte_length(self) -> int:
        return self.bytes_

    def packet_length(self) -> int:
        return self.packets

    def queue_delay(self) -> float:
        return self.delay


@pytest.fixture
def stub_queue() -> StubQueue:
    return StubQueue()
