"""Traffic substrate: unresponsive CBR sources and web-like short flows."""

from repro.traffic.udp import UdpSource
from repro.traffic.web import WebWorkload, bounded_pareto_segments

__all__ = [
    "UdpSource",
    "WebWorkload",
    "bounded_pareto_segments",
]
