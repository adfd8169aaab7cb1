"""Transport substrate: window-based TCP models.

:data:`SENDERS` names the four congestion controls the experiments use:
Reno, Cubic (with its CReno mode), ECN-Cubic (Classic ECN) and DCTCP (the
Scalable control).
"""

from repro.tcp.base import INITIAL_RTO, MIN_RTO, TcpSender
from repro.tcp.cubic import CUBIC_BETA, CUBIC_C, CubicSender, EcnCubicSender
from repro.tcp.dctcp import DCTCP_GAIN, DctcpSender
from repro.tcp.receiver import DELACK_TIMEOUT, TcpReceiver
from repro.tcp.reno import RenoSender

__all__ = [
    "TcpSender",
    "RenoSender",
    "CubicSender",
    "EcnCubicSender",
    "DctcpSender",
    "TcpReceiver",
    "CUBIC_C",
    "CUBIC_BETA",
    "DCTCP_GAIN",
    "MIN_RTO",
    "INITIAL_RTO",
    "DELACK_TIMEOUT",
]

#: Registry mapping the names used in experiment configs to sender classes.
SENDERS = {
    "reno": RenoSender,
    "cubic": CubicSender,
    "ecn-cubic": EcnCubicSender,
    "dctcp": DctcpSender,
}
