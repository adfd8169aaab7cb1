"""PI2 — 'PI Improved with a square' (Sections 4 and 5, Figure 8).

The paper's central contribution for a single (Classic) traffic class.
The structure is Figure 1a:

* a **generic linear stage**: the unmodified PI controller of
  :class:`repro.aqm.pi.PIController` drives a pseudo-probability ``p'``
  that is by definition linearly proportional to load (for ACK-clocked
  sources, load ∝ 1/W and Classic TCP has W ∝ 1/√p, so √p — i.e. p' —
  is the linear signal);
* a **congestion-control-specific output stage**: the applied drop/mark
  probability is ``p = p'²``, which counterbalances the square root in
  the Classic window law.

Squaring flattens the Bode gain margin across the whole load range
(Figure 7), so constant gain factors 2.5× larger than PIE's base values
are stable everywhere — the paper's defaults α = 0.3125 Hz, β = 3.125 Hz
(Figure 6 caption) are exactly 2.5 × PIE's (0.125, 1.25).  All of PIE's
scaling and corrective heuristics are removed (Section 5 'Fewer
Heuristics'); the only operational guard retained is the overload cap:
the Classic probability is limited to 25 % (``p' ≤ 0.5``), beyond which
the queue is allowed to grow and tail-drop takes over.

The squared decision can be computed two ways (Section 5):

* ``"multiply"`` — compare one random variable against ``p'²`` (natural
  in software);
* ``"two-randoms"`` — signal when ``max(Y₁, Y₂) < p'``, i.e. both of two
  independent uniform variables fall below ``p'`` (natural in hardware,
  and needs only half-resolution random words).

Both produce a Bernoulli(p'²) signal; the unit tests check the
distributional equivalence.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.aqm.base import AQM, Decision, clamp_unit
from repro.aqm.pi import PIController
from repro.net.packet import ECN, Packet
from repro.sim.random import default_stream
from repro.units import PerSecond, Probability, Seconds

__all__ = ["Pi2Aqm", "DEFAULT_ALPHA_PI2", "DEFAULT_BETA_PI2"]

#: PI2 gain defaults (Figure 6/7 captions): 2.5 × PIE's base gains.
DEFAULT_ALPHA_PI2: PerSecond = 0.3125
DEFAULT_BETA_PI2: PerSecond = 3.125

# Module globals read faster than the enum class attributes per packet.
_NOT_ECT = ECN.NOT_ECT
_PASS, _MARK, _DROP = Decision.PASS, Decision.MARK, Decision.DROP


class Pi2Aqm(AQM):
    """Single-class PI2 AQM (drop for Not-ECT, classic CE-mark for ECT).

    Parameters
    ----------
    alpha, beta:
        Constant gain factors in Hz applied to the linear stage.
    target_delay, update_interval:
        τ₀ and T, as for PIE (20 ms / 32 ms defaults).
    classic_p_max:
        Overload cap on the applied (squared) probability; 25 % per
        Section 5.  The internal ``p'`` is clamped at its square root so
        the integrator cannot wind up beyond the achievable signal.
    decision_mode:
        ``"multiply"`` or ``"two-randoms"`` (see module docstring).
    ecn:
        Whether ECT packets are CE-marked instead of dropped (classic ECN
        semantics: mark probability equals drop probability).
    """

    def __init__(
        self,
        alpha: PerSecond = DEFAULT_ALPHA_PI2,
        beta: PerSecond = DEFAULT_BETA_PI2,
        target_delay: Seconds = Seconds(0.020),
        update_interval: Seconds = Seconds(0.032),
        classic_p_max: Probability = 0.25,
        decision_mode: str = "multiply",
        ecn: bool = True,
        rng: Optional[random.Random] = None,
    ):
        super().__init__()
        if decision_mode not in ("multiply", "two-randoms"):
            raise ValueError(
                f"decision_mode must be 'multiply' or 'two-randoms' (got {decision_mode!r})"
            )
        if not 0.0 < classic_p_max <= 1.0:
            raise ValueError(f"classic_p_max must be in (0,1] (got {classic_p_max})")
        self.controller = PIController(
            alpha, beta, target_delay, p_max=math.sqrt(classic_p_max)
        )
        self.update_interval = update_interval
        self.classic_p_max = classic_p_max
        self.decision_mode = decision_mode
        # Settled here rather than compared as a string per decision.
        self._multiply = decision_mode == "multiply"
        self.ecn = ecn
        self.rng = rng or default_stream()

    # ------------------------------------------------------------------
    def update(self) -> None:
        """One PI step on the *linear* pseudo-probability — no scaling,
        no auto-tune: this is the entire controller (Figure 8)."""
        self.controller.update(self.queue.queue_delay())

    def on_enqueue(self, packet: Packet) -> Decision:
        p_prime = self.controller.p
        if p_prime <= 0.0:
            return _PASS
        if self._multiply:
            signal = self.rng.random() < p_prime * p_prime
        else:
            # Think twice to drop: both random values must fall below p'.
            signal = max(self.rng.random(), self.rng.random()) < p_prime
        if not signal:
            return _PASS
        if self.ecn and packet.ecn is not _NOT_ECT:
            return _MARK
        return _DROP

    # ------------------------------------------------------------------
    @property
    def probability(self) -> Probability:
        """The applied Classic probability ``p = p'²`` (Figure 17's metric)."""
        return clamp_unit(self.controller.p ** 2)

    @property
    def raw_probability(self) -> Probability:
        """The internal linear pseudo-probability ``p'``."""
        return self.controller.p
