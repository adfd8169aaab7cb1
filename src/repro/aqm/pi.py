"""The basic Proportional Integral AQM (Hollot et al. [18]).

This is the core controller of the whole PIE/PI2 family (the paper's
Figure 2 / equation (4)): every update interval ``T``,

    p(t) = p(t−T) + α·(τ(t) − τ₀) + β·(τ(t) − τ(t−T)),

with τ the queuing delay, τ₀ the target, α the integral gain and β the
proportional gain (both in Hz), and p clamped to [0, 1].  The probability
is applied directly to packets — drop for Not-ECT, CE-mark for
ECN-capable traffic.

Two roles in the paper:

* With fixed Classic-scale gains and no squaring it is the **'pi' curve of
  Figure 6** — the demonstration that an un-tuned PI controller driving
  Classic TCP over-reacts at low load (p too small for fixed gains),
  causing underutilization and an oscillating queue.
* With the Scalable gains and applied to DCTCP it is the **'scal pi'
  configuration of Figure 7** and the Scalable branch of the coupled AQM:
  a Scalable control's window is linear in p (equation (11)), so the linear
  controller needs no output-stage correction.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.aqm.base import AQM, Decision, clamp_unit, guard_finite
from repro.net.packet import ECN, Packet
from repro.sim.random import default_stream
from repro.units import PerSecond, Probability, Seconds

__all__ = ["PIController", "PiAqm"]

# Module globals read faster than the enum class attributes per packet.
_NOT_ECT = ECN.NOT_ECT
_PASS, _MARK, _DROP = Decision.PASS, Decision.MARK, Decision.DROP

#: Paper defaults (Figure 6 caption): PIE-scale gains without auto-tuning.
DEFAULT_ALPHA: PerSecond = 0.125
DEFAULT_BETA: PerSecond = 1.25
DEFAULT_TARGET: Seconds = 0.020
DEFAULT_T_UPDATE: Seconds = 0.032


class PIController:
    """The bare PI difference equation, shared by PI, PIE, PI2 and coupled.

    Keeps no opinion about what the output means (drop probability p for
    PI/PIE, pseudo-probability p' for PI2) — that is exactly the
    separation the paper introduces between the generic controller and the
    congestion-control-specific output stage (Figure 1).
    """

    def __init__(
        self,
        alpha: PerSecond,
        beta: PerSecond,
        target: Seconds,
        p_max: Probability = 1.0,
    ):
        if alpha <= 0 or beta <= 0:
            raise ValueError(f"gains must be positive (got alpha={alpha}, beta={beta})")
        if target <= 0:
            raise ValueError(f"target delay must be positive (got {target})")
        if not 0.0 < p_max <= 1.0:
            raise ValueError(f"p_max must be in (0,1] (got {p_max})")
        self.alpha = alpha
        self.beta = beta
        self.target = target
        self.p_max = p_max
        self.p: Probability = 0.0
        self.prev_delay: Seconds = 0.0

    def update(self, delay: Seconds, gain_scale: float = 1.0) -> Probability:
        """One controller step: equation (4), returning the new output.

        ``gain_scale`` multiplies Δp; PIE's auto-tune passes its stepped
        table value here, everyone else passes 1.

        A non-finite input or output raises
        :class:`~repro.errors.ControllerDivergence` instead of silently
        clamping garbage into the drop probability: a NaN delay estimate
        (e.g. a broken departure-rate measurement) would otherwise poison
        ``p`` and every later update while the run appears to succeed.
        """
        guard_finite(
            delay,
            f"queue-delay input to PI update is not finite: {delay!r}",
            component="PIController",
            p=self.p,
            prev_delay=self.prev_delay,
        )
        delta = (
            self.alpha * (delay - self.target)
            + self.beta * (delay - self.prev_delay)
        ) * gain_scale
        candidate = guard_finite(
            self.p + delta,
            f"PI update produced a non-finite probability: {self.p + delta!r}",
            component="PIController",
            p=self.p,
            delay=delay,
            delta=delta,
            gain_scale=gain_scale,
        )
        self.p = clamp_unit(candidate, self.p_max)
        self.prev_delay = delay
        return self.p

    def state(self) -> dict:
        """Read-only snapshot of the controller for telemetry export.

        Feeds the ``aqm.controller.*`` metrics and the tracer's
        ``aqm_update`` fields; reading it never perturbs the difference
        equation.
        """
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "target": self.target,
            "p_max": self.p_max,
            "p": self.p,
            "prev_delay": self.prev_delay,
        }


class PiAqm(AQM):
    """Plain PI AQM applying its output probability directly.

    Parameters follow the paper's Figure 6 caption defaults.  ``rng``
    must be supplied for reproducible drop decisions (use a stream from
    :class:`repro.sim.RandomStreams`).
    """

    def __init__(
        self,
        alpha: PerSecond = DEFAULT_ALPHA,
        beta: PerSecond = DEFAULT_BETA,
        target_delay: Seconds = DEFAULT_TARGET,
        update_interval: Seconds = DEFAULT_T_UPDATE,
        p_max: Probability = 1.0,
        ecn: bool = True,
        rng: Optional[random.Random] = None,
    ):
        super().__init__()
        self.controller = PIController(alpha, beta, target_delay, p_max)
        self.update_interval = update_interval
        self.ecn = ecn
        self.rng = rng or default_stream()

    def update(self) -> None:
        """Periodic PI step: recompute ``p`` from the current queue delay."""
        self.controller.update(self.queue.queue_delay())

    def on_enqueue(self, packet: Packet) -> Decision:
        """Signal the arriving packet with probability ``p`` (mark if ECT)."""
        p = self.controller.p
        if p <= 0.0 or self.rng.random() >= p:
            return _PASS
        if self.ecn and packet.ecn is not _NOT_ECT:
            return _MARK
        return _DROP

    @property
    def probability(self) -> Probability:
        """Currently applied drop/mark probability ``p``."""
        return self.controller.p
