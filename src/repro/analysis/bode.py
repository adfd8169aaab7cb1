"""Bode gain and phase margins for the Appendix-B loop transfer functions.

Regenerates the margin plots of Figures 4 and 7:

* **Gain margin** — at the first phase crossover ω_pc (unwrapped phase
  falling through −180°), GM = −20·log₁₀|L(jω_pc)| dB.  Positive GM means
  the loop tolerates that much extra gain before instability; the paper's
  claim is that squaring flattens GM across the whole load range, leaving
  room to raise the gains ×2.5.
* **Phase margin** — at the gain crossover ω_gc (|L| falling through 1),
  PM = 180° + ∠L(jω_gc).

Both are computed numerically on a dense logarithmic frequency grid with
linear interpolation at the crossings, which is accurate to well under a
tenth of a dB/degree at the default resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analysis.fluid import PiGains, loop_reno_p, loop_reno_p2, loop_scal_p
from repro.aqm.tune_table import tune

__all__ = [
    "Margins",
    "margins_from_loop",
    "margins_reno_pie",
    "margins_reno_pi",
    "margins_reno_pi2",
    "margins_scal_pi",
    "max_stable_gain",
]


@dataclass(frozen=True)
class Margins:
    """Gain margin (dB) and phase margin (degrees) with their frequencies.

    A margin is ``None`` when the corresponding crossover does not occur
    within the evaluated frequency range (e.g. the phase never reaches
    −180° for very sluggish loops).
    """

    gain_margin_db: Optional[float]
    phase_margin_deg: Optional[float]
    phase_crossover_hz: Optional[float] = None
    gain_crossover_hz: Optional[float] = None

    @property
    def stable(self) -> bool:
        """Both margins positive (or absent), the usual stability read-out."""
        gm_ok = self.gain_margin_db is None or self.gain_margin_db > 0
        pm_ok = self.phase_margin_deg is None or self.phase_margin_deg > 0
        return gm_ok and pm_ok


def _first_downward_crossing(
    x: np.ndarray, y: np.ndarray, level: float
) -> Optional[int]:
    """Index i such that y[i] >= level > y[i+1], or None."""
    above = y >= level
    hits = np.nonzero(above[:-1] & ~above[1:])[0]
    return int(hits[0]) if hits.size else None


def margins_from_loop(
    loop: Callable[[np.ndarray], np.ndarray],
    omega_min: float = 1e-4,
    omega_max: float = 1e4,
    points: int = 20_000,
) -> Margins:
    """Compute margins of ``loop(s)`` evaluated at ``s = jω``."""
    omega = np.logspace(math.log10(omega_min), math.log10(omega_max), points)
    response = loop(1j * omega)
    mag = np.abs(response)
    phase = np.degrees(np.unwrap(np.angle(response)))

    gm_db = pm_deg = w_pc = w_gc = None

    i = _first_downward_crossing(omega, phase, -180.0)
    if i is not None:
        # Linear interpolation in log-frequency for the crossing point.
        f = (phase[i] - (-180.0)) / (phase[i] - phase[i + 1])
        log_w = np.log10(omega[i]) + f * (np.log10(omega[i + 1]) - np.log10(omega[i]))
        w_pc = 10 ** log_w
        mag_pc = 10 ** (
            np.log10(mag[i]) + f * (np.log10(mag[i + 1]) - np.log10(mag[i]))
        )
        gm_db = -20.0 * math.log10(mag_pc)

    j = _first_downward_crossing(omega, mag, 1.0)
    if j is not None:
        f = (mag[j] - 1.0) / (mag[j] - mag[j + 1])
        log_w = np.log10(omega[j]) + f * (np.log10(omega[j + 1]) - np.log10(omega[j]))
        w_gc = 10 ** log_w
        phase_gc = phase[j] + f * (phase[j + 1] - phase[j])
        pm_deg = 180.0 + phase_gc

    return Margins(
        gain_margin_db=gm_db,
        phase_margin_deg=pm_deg,
        phase_crossover_hz=None if w_pc is None else w_pc / (2 * math.pi),
        gain_crossover_hz=None if w_gc is None else w_gc / (2 * math.pi),
    )


# --------------------------------------------------------------------------
# The paper's four configurations
# --------------------------------------------------------------------------

def margins_reno_pie(p0: float, r0: float, gains: PiGains) -> Margins:
    """'reno pie' / Figure 4 'tune=auto': PIE with table-scaled gains at p₀."""
    scaled = gains.scaled(tune(p0))
    return margins_from_loop(lambda s: loop_reno_p(s, p0, r0, scaled))


def margins_reno_pi(p0: float, r0: float, gains: PiGains, tune_factor: float = 1.0) -> Margins:
    """Figure 4's fixed-tune curves: PI on Reno with constant gain scaling."""
    scaled = gains.scaled(tune_factor)
    return margins_from_loop(lambda s: loop_reno_p(s, p0, r0, scaled))


def margins_reno_pi2(p_prime: float, r0: float, gains: PiGains) -> Margins:
    """'reno pi2': the squared output stage, evaluated at p₀′."""
    return margins_from_loop(lambda s: loop_reno_p2(s, p_prime, r0, gains))


def margins_scal_pi(p_prime: float, r0: float, gains: PiGains) -> Margins:
    """'scal pi': a Scalable control on the linear PI output, at p₀′."""
    return margins_from_loop(lambda s: loop_scal_p(s, p_prime, r0, gains))


def max_stable_gain(
    kind: str,
    p: float,
    r0: float,
    gains: PiGains,
    upper: float = 64.0,
    tolerance: float = 0.01,
) -> float:
    """Largest factor by which the gains can be multiplied before the
    gain margin reaches zero at operating point ``p``.

    This quantifies the paper's headroom argument directly: squaring the
    output lets PI2 run gains "×2.5 without the gain margin dipping below
    zero anywhere over the full load range".  Computed by bisection on a
    uniform gain multiplier (which shifts |L| without moving its phase,
    so the answer is exactly the gain margin expressed as a ratio — the
    bisection doubles as a consistency check of the margin computation).

    Returns ``inf`` if even ``upper`` keeps the loop stable, 0 if the
    loop is already unstable at the given gains.
    """
    base = {
        "reno_pi": lambda g: margins_reno_pi(p, r0, g),
        "reno_pie": lambda g: margins_reno_pie(p, r0, g),
        "reno_pi2": lambda g: margins_reno_pi2(p, r0, g),
        "scal_pi": lambda g: margins_scal_pi(p, r0, g),
    }
    if kind not in base:
        raise ValueError(f"unknown kind {kind!r}; choose from {sorted(base)}")

    def stable(scale: float) -> bool:
        m = base[kind](gains.scaled(scale))
        return m.gain_margin_db is None or m.gain_margin_db > 0

    if not stable(1.0):
        return 0.0
    if stable(upper):
        return math.inf
    lo, hi = 1.0, upper
    while hi / lo > 1.0 + tolerance:
        mid = math.sqrt(lo * hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
