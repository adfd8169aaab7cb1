"""TCP Cubic with the Linux CReno (TCP-friendly) fallback.

Implements the congestion-avoidance window of Ha, Rhee & Xu [16]:

    W_cubic(t) = C·(t − K)³ + W_max,      K = ((W_max·(1−β))/C)^⅓

with the Linux constants C = 0.4 and β = 0.7, plus the *TCP-friendly
region*: per RTT the window also tracks the rate an AIMD(1, β) flow
would achieve,

    W_est(t) = W_max·β + t/RTT,

and uses whichever is larger.  At small rate·RTT products the estimate
always wins, so the flow behaves as "CReno" — Reno with β = 0.7, the mode
the paper's Appendix A gives equation (7) for (``W = 1.68/√p``) and whose
switch-over condition is equation (8), ``W·R^{3/2} < 3.5``.

``EcnCubicSender`` is the paper's "ECN-Cubic": identical except that ECN is
negotiated (ECT(0)) and an ECE echo triggers the same β = 0.7 reduction as
a loss.
"""

from __future__ import annotations

import math

from repro.tcp.base import TcpSender

__all__ = ["CubicSender", "EcnCubicSender", "CUBIC_C", "CUBIC_BETA"]

#: Cubic's scaling constant (Linux default, units: segments/s³).
CUBIC_C = 0.4

#: Cubic's multiplicative-decrease factor (Linux default).
CUBIC_BETA = 0.7


#: Additive increase per RTT in the TCP-friendly (CReno) region.  The paper
#: models Linux CReno as AIMD(1, 0.7) — one segment per RTT with decrease
#: factor 0.7 — which yields equation (7)'s W = 1.68/√p.  (RFC 8312's
#: 3(1−β)/(1+β) ≈ 0.53 would instead equalize to plain Reno's rate; Linux
#: counts ACKed segments and behaves like the paper's model.)
CRENO_AI = 1.0


class CubicSender(TcpSender):
    """TCP Cubic (loss-based unless subclassed for ECN)."""

    loss_beta = CUBIC_BETA
    ecn_beta = CUBIC_BETA

    def __init__(
        self,
        *args,
        fast_convergence: bool = True,
        friendly_ai: float = CRENO_AI,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if friendly_ai <= 0:
            raise ValueError(f"friendly_ai must be positive (got {friendly_ai})")
        self.friendly_ai = friendly_ai
        self.fast_convergence = fast_convergence
        self._w_max = 0.0
        self._epoch_start: float = -1.0
        self._k = 0.0
        self._origin = 0.0
        #: True while the TCP-friendly estimate governs the window (CReno).
        self.in_creno_mode = False

    # ------------------------------------------------------------------
    # Congestion-control hooks
    # ------------------------------------------------------------------
    def on_congestion_event(self, kind: str) -> None:
        w = self.cwnd
        if self.fast_convergence and w < self._w_max:
            # Release bandwidth faster when a new flow is ramping up.
            self._w_max = w * (2.0 - CUBIC_BETA) / 2.0
        else:
            self._w_max = w
        self._epoch_start = -1.0

    def ca_increase(self, acked: int) -> None:
        now = self.sim.now
        rtt = self.srtt if self.srtt is not None else 0.1
        if self._epoch_start < 0:
            self._epoch_start = now
            if self.cwnd < self._w_max:
                self._origin = self._w_max
                self._k = ((self._w_max - self.cwnd) / CUBIC_C) ** (1.0 / 3.0)
            else:
                self._origin = self.cwnd
                self._k = 0.0
            self._creno_start_cwnd = self.cwnd
        # Aim one RTT ahead, as the Linux implementation does.
        t = now - self._epoch_start + rtt
        target = self._origin + CUBIC_C * (t - self._k) ** 3
        # TCP-friendly region: equation (7)'s CReno behaviour, AIMD(1, 0.7).
        w_est = self._w_max * CUBIC_BETA + self.friendly_ai * (t / rtt)
        self.in_creno_mode = w_est > target
        if self.in_creno_mode:
            target = w_est
        if target > self.cwnd:
            # Growth capped at 1.5 segments per ACKed segment (Linux's
            # delayed-ACK compensation bound).
            self.cwnd += min(acked * (target - self.cwnd) / self.cwnd, 1.5 * acked)
        else:
            # Minimal probing growth in the concave plateau.
            self.cwnd += acked * 0.01 / self.cwnd


class EcnCubicSender(CubicSender):
    """Cubic with classic ECN enabled — the paper's 'ECN-Cubic' control."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("ecn_mode", "classic")
        if kwargs["ecn_mode"] != "classic":
            raise ValueError("EcnCubicSender requires ecn_mode='classic'")
        super().__init__(*args, **kwargs)


# Re-exported convenience: equation (8)'s threshold constant.
CRENO_SWITCHOVER = 3.5
assert math.isclose(CRENO_SWITCHOVER, 3.5)
