"""Latency-sensitive application traffic (VoIP / gaming style).

The paper's introduction motivates AQM with interactive applications —
"voice, conversational and interactive video, finance apps, online
gaming" — whose quality "tends to be dominated by worst case delays".
This module provides the measurement half of that story:

* :class:`RealtimeSource` — an isochronous stream of small packets
  (defaults model a G.711-ish voice flow: 200 bytes every 20 ms);
* :class:`RealtimeSink` — records each packet's one-way delay and
  computes the QoE-facing statistics: delay percentiles (P99 is the
  number the paper's worst-case argument is about), RFC 3550-style
  smoothed jitter, and loss.

The examples run one of these flows through a bottleneck congested by
bulk TCP under different AQMs — the end-to-end demonstration of what
"20 ms target" (or DualQ's ~1 ms) means for an application.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.net.packet import ECN, Packet
from repro.sim.engine import Simulator

__all__ = ["RealtimeSource", "RealtimeSink"]


class RealtimeSource:
    """Isochronous small-packet sender (unresponsive, like real RTP)."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        transmit: Callable[[Packet], None],
        interval: float = 0.020,
        payload_bytes: int = 200,
        ecn: ECN = ECN.NOT_ECT,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        if payload_bytes <= 0:
            raise ValueError(f"payload must be positive (got {payload_bytes})")
        self.sim = sim
        self.flow_id = flow_id
        self.transmit = transmit
        self.interval = interval
        self.payload_bytes = payload_bytes
        self.ecn = ecn
        self.sent = 0
        self._seq = 0
        self._stopped = False
        self._until: Optional[float] = None

    def start(self, at: float = 0.0, until: Optional[float] = None) -> None:
        self._until = until
        self.sim.at(at, self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        if self._until is not None and self.sim.now >= self._until:
            return
        pkt = Packet(
            flow_id=self.flow_id,
            size=self.payload_bytes,
            seq=self._seq,
            ecn=self.ecn,
            send_time=self.sim.now,
        )
        self._seq += 1
        self.sent += 1
        self.transmit(pkt)
        self.sim.post(self.interval, self._tick)


class RealtimeSink:
    """Receives a realtime stream and accumulates QoE statistics.

    One-way delay is measured from each packet's ``send_time``;
    ``base_delay`` (the propagation component) can be subtracted so the
    numbers isolate queuing.  Jitter follows RFC 3550's smoothed
    inter-arrival estimator: J ← J + (|D| − J)/16.
    """

    def __init__(self, sim: Simulator, base_delay: float = 0.0):
        if base_delay < 0:
            raise ValueError(f"base delay cannot be negative (got {base_delay})")
        self.sim = sim
        self.base_delay = base_delay
        self.delays: List[float] = []
        self.jitter = 0.0
        self.received = 0
        self.last_seq = -1
        self.reordered = 0
        self._prev_transit: Optional[float] = None

    def deliver(self, packet: Packet) -> None:
        now = self.sim.now
        transit = now - packet.send_time
        self.received += 1
        self.delays.append(max(0.0, transit - self.base_delay))
        if packet.seq < self.last_seq:
            self.reordered += 1
        self.last_seq = max(self.last_seq, packet.seq)
        if self._prev_transit is not None:
            d = abs(transit - self._prev_transit)
            self.jitter += (d - self.jitter) / 16.0
        self._prev_transit = transit

    # ------------------------------------------------------------------
    def loss_fraction(self, sent: int) -> float:
        if sent <= 0:
            return math.nan
        return 1.0 - self.received / sent

    def delay_percentile(self, q: float) -> float:
        if not self.delays:
            return math.nan
        data = sorted(self.delays)
        idx = min(len(data) - 1, max(0, int(round(q / 100.0 * (len(data) - 1)))))
        return data[idx]

    def mean_delay(self) -> float:
        if not self.delays:
            return math.nan
        return sum(self.delays) / len(self.delays)
