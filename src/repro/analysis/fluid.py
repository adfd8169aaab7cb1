"""Fluid-model transfer functions — Appendix B, equations (15)–(37).

Implements the linearized loop transfer functions of the paper's stability
analysis (following Misra et al. [26] and Hollot et al. [19]) for the three
controller/plant combinations:

* ``loop_reno_p``   — Reno controlled by a *direct* probability p
  (equation (35)); with PIE's auto-tuned gains this gives the 'reno pie'
  margins of Figure 7 and, with fixed gains, the diagonal margins of
  Figure 4.
* ``loop_reno_p2``  — Reno controlled by a squared pseudo-probability
  p = p'² (equation (36)); the 'reno pi2' curves.
* ``loop_scal_p``   — a Scalable control (half-packet reduction per mark)
  on the linear PI output (equation (37)); the 'scal pi' curves.

The AQM (PI controller + queue) transfer function is equation (31):

    A(s) = κ_A (s/z_A + 1) / (W₀ s (s/s_A + 1)),
    κ_A = αR₀/T,  z_A = α/(T(β+α/2)),  s_A = 1/R₀,

and the plant gains/poles (below equation (34)):

    κ_S = 1/p₀′,  s_S = p₀′/(2R₀),  κ_R = κ_S/2 = 1/(2p₀),
    s_R = √2·p₀′/R₀ = √(2p₀)/R₀ = √8·s_S.

W₀ cancels between plant and AQM, so the loop depends only on
(p₀ or p₀′, R₀, α, β, T).  All functions take ``s`` as a complex scalar or
numpy array and vectorize transparently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiGains",
    "AqmTransfer",
    "loop_reno_p",
    "loop_reno_p2",
    "loop_scal_p",
    "PAPER_PIE_GAINS",
    "PAPER_PI2_GAINS",
    "PAPER_SCAL_GAINS",
]


@dataclass(frozen=True)
class PiGains:
    """PI controller parameters: gains in Hz and update interval T in s."""

    alpha: float
    beta: float
    t_update: float = 0.032

    def __post_init__(self) -> None:
        # ``not x > 0`` so that NaN fails too: a NaN or infinite gain
        # gives nan margins, and ``bode`` would print them as a result.
        gains = (self.alpha, self.beta)
        if not all(g > 0 and math.isfinite(g) for g in gains):
            raise ValueError(
                f"gains must be positive and finite "
                f"(got alpha={self.alpha}, beta={self.beta})"
            )
        if not (self.t_update > 0 and math.isfinite(self.t_update)):
            raise ValueError(f"T must be positive and finite (got {self.t_update})")

    def scaled(self, factor: float) -> "PiGains":
        """Gains multiplied by ``factor`` (PIE's tune scaling)."""
        return PiGains(self.alpha * factor, self.beta * factor, self.t_update)


#: The paper's parameter sets (Figure 7 caption).
PAPER_PIE_GAINS = PiGains(alpha=0.125, beta=1.25)
PAPER_PI2_GAINS = PiGains(alpha=0.3125, beta=3.125)
PAPER_SCAL_GAINS = PiGains(alpha=0.625, beta=6.25)


@dataclass(frozen=True)
class AqmTransfer:
    """Equation (31)'s AQM block, sans the 1/W₀ that cancels in the loop."""

    gains: PiGains
    r0: float

    def __post_init__(self) -> None:
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise ValueError(f"R0 must be positive and finite (got {self.r0})")

    @property
    def kappa_a(self) -> float:
        return self.gains.alpha * self.r0 / self.gains.t_update

    @property
    def z_a(self) -> float:
        g = self.gains
        return g.alpha / (g.t_update * (g.beta + g.alpha / 2.0))

    @property
    def s_a(self) -> float:
        return 1.0 / self.r0

    def numerator(self, s: np.ndarray) -> np.ndarray:
        """κ_A (s/z_A + 1) — shared by all three loop functions."""
        return self.kappa_a * (s / self.z_a + 1.0)

    def pole_terms(self, s: np.ndarray) -> np.ndarray:
        """(s/s_A + 1)·s — the AQM denominator shared by the loops."""
        return (s / self.s_a + 1.0) * s


def _plant_constants(p_prime: float, r0: float) -> tuple[float, float, float, float]:
    """κ_S, s_S, κ_R, s_R from a scalable-space operating point p₀′."""
    if not 0.0 < p_prime <= 1.0:
        raise ValueError(f"operating point p' must be in (0,1] (got {p_prime})")
    if not (r0 > 0 and math.isfinite(r0)):  # NaN or inf gives nan margins
        raise ValueError(f"R0 must be positive and finite (got {r0})")
    kappa_s = 1.0 / p_prime
    s_s = p_prime / (2.0 * r0)
    kappa_r = kappa_s / 2.0
    s_r = math.sqrt(2.0) * p_prime / r0
    return kappa_s, s_s, kappa_r, s_r


def loop_reno_p(s: np.ndarray, p0: float, r0: float, gains: PiGains) -> np.ndarray:
    """Equation (35): Reno driven directly by probability p (PI / PIE).

    ``p0`` is the operating-point *classic* probability; internally the
    equivalent p₀′ = √p₀ parameterizes the shared plant constants
    (κ_R = 1/(2p₀), s_R = √(2p₀)/R₀).
    """
    if not 0.0 < p0 <= 1.0:
        raise ValueError(f"operating point p must be in (0,1] (got {p0})")
    # κ_R = 1/(2p₀) in *classic* probability; s_R = √(2p₀)/R₀ (the pole is
    # the same as the squared loop's at the matched point p₀ = p₀′²).
    kappa_r = 1.0 / (2.0 * p0)
    s_r = math.sqrt(2.0 * p0) / r0
    aqm = AqmTransfer(gains, r0)
    delay = np.exp(-s * r0)
    den = (s / s_r + (1.0 + delay) / 2.0) * aqm.pole_terms(s)
    return kappa_r * aqm.numerator(s) * delay / den


def loop_reno_p2(s: np.ndarray, p_prime: float, r0: float, gains: PiGains) -> np.ndarray:
    """Equation (36): Reno driven by the squared pseudo-probability (PI2).

    Identical to (35) except the plant gain is κ_S = 1/p₀′ = 2κ_R: the
    squaring doubles the small-signal sensitivity but, crucially, makes it
    *linear* in p₀′, flattening the gain margin across load (Figure 7).
    """
    kappa_s, _, _, s_r = _plant_constants(p_prime, r0)
    aqm = AqmTransfer(gains, r0)
    delay = np.exp(-s * r0)
    den = (s / s_r + (1.0 + delay) / 2.0) * aqm.pole_terms(s)
    return kappa_s * aqm.numerator(s) * delay / den


def loop_scal_p(s: np.ndarray, p_prime: float, r0: float, gains: PiGains) -> np.ndarray:
    """Equation (37): a Scalable control (−½ packet per mark) on linear PI."""
    kappa_s, s_s, _, _ = _plant_constants(p_prime, r0)
    aqm = AqmTransfer(gains, r0)
    delay = np.exp(-s * r0)
    den = (s / s_s + delay) * aqm.pole_terms(s)
    return kappa_s * aqm.numerator(s) * delay / den
