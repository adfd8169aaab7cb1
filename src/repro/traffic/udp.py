"""Constant-bit-rate unresponsive (UDP-like) traffic source.

Used by the paper's 'Mixture of TCP and UDP traffic' scenarios (Figure 11c
and Figure 14b: two UDP flows at 6 Mb/s each into a 10 Mb/s bottleneck) to
test AQM behaviour under unresponsive overload.  The source emits
fixed-size packets at a constant rate; it ignores all feedback, which is
the point — the AQM must push its probability high (or saturate and let
tail-drop act) to protect responsive traffic.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import DEFAULT_MSS, ECN, HEADER_BYTES, Packet
from repro.sim.engine import Simulator

__all__ = ["UdpSource"]


class UdpSource:
    """Sends ``rate_bps`` of Not-ECT (by default) packets from ``start``
    until ``until``."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        transmit: Callable[[Packet], None],
        rate_bps: float,
        packet_size: int = DEFAULT_MSS + HEADER_BYTES,
        ecn: ECN = ECN.NOT_ECT,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive (got {rate_bps})")
        if packet_size <= 0:
            raise ValueError(f"packet size must be positive (got {packet_size})")
        self.sim = sim
        self.flow_id = flow_id
        self.transmit = transmit
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.ecn = ecn
        self.packets_sent = 0
        self._interval = packet_size * 8.0 / rate_bps

    def start(self, at: float = 0.0, until: Optional[float] = None) -> None:
        """Begin sending at ``at``; optionally stop at ``until``."""
        self._until = until
        self.sim.at(at, self._send_next)

    def _send_next(self) -> None:
        if self._until is not None and self.sim.now >= self._until:
            return
        pkt = Packet(
            flow_id=self.flow_id,
            size=self.packet_size,
            ecn=self.ecn,
            send_time=self.sim.now,
        )
        self.packets_sent += 1
        self.transmit(pkt)
        self.sim.post(self._interval, self._send_next)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UdpSource flow={self.flow_id} {self.rate_bps / 1e6:.1f}Mbps>"
