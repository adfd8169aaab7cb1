"""DCTCP — the paper's Scalable congestion control.

Implements the Data Center TCP of Alizadeh et al. [2] in the configuration
the paper uses (Section 5): the sender sets **ECT(1)** (the proposed
Scalable/L4S identifier) instead of ECT(0), and the receiver echoes CE
marks accurately per packet rather than with RFC 3168's latched ECE.

Sender algorithm:

* per ACK, count acked and CE-marked segments;
* once per window (RTT), update the marked-fraction EWMA
  ``α ← (1−g)·α + g·F`` with gain ``g = 1/16``;
* if any segment in the window was marked, reduce ``cwnd ← cwnd·(1−α/2)``
  (at most once per window).

Under a probabilistic (PI-driven) marker this yields the steady-state
window of equation (11), ``W = 2/p`` — linear in the signal, i.e. a
*Scalable* control with B = 1, which is exactly why the linear PI output
``p'`` can be applied to it directly without squaring.  Under a step
(threshold) marker the classic DCTCP-paper law (12), ``W = 2/p²``, applies
instead; :mod:`repro.analysis.steady_state` provides both.

On loss DCTCP falls back to Reno behaviour (halve the window).
"""

from __future__ import annotations

from repro.tcp.base import TcpSender

__all__ = ["DctcpSender", "DCTCP_GAIN"]

#: EWMA gain g for the marked-fraction estimate (DCTCP paper default).
DCTCP_GAIN = 1.0 / 16.0


class DctcpSender(TcpSender):
    """DCTCP sender with accurate ECN feedback and ECT(1) marking."""

    loss_beta = 0.5

    def __init__(self, *args, gain: float = DCTCP_GAIN, alpha0: float = 1.0, **kwargs):
        kwargs.setdefault("ecn_mode", "scalable")
        if kwargs["ecn_mode"] != "scalable":
            raise ValueError("DctcpSender requires ecn_mode='scalable'")
        super().__init__(*args, **kwargs)
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"gain must be in (0,1] (got {gain})")
        #: EWMA of the fraction of marked segments; starts conservative at 1
        #: so a fresh flow reacts strongly to its first marks (Linux default).
        self.alpha = alpha0
        self.gain = gain

    def on_round_end(self, acked: int, marked: int) -> None:
        """Per-window α update and (at most one) window reduction."""
        if acked <= 0:
            return
        fraction = marked / acked
        self.alpha = (1.0 - self.gain) * self.alpha + self.gain * fraction
        if marked > 0 and not self.in_recovery:
            self.ecn_reductions += 1
            self.cwnd = max(self.min_cwnd, self.cwnd * (1.0 - self.alpha / 2.0))
            # Like any congestion response, the reduction ends slow start
            # (Linux DCTCP sets ssthresh via the CWR state machine).
            self.ssthresh = self.cwnd
