"""Steady-state throughput laws — Appendix A, equations (1)–(14).

These closed forms are both an analysis tool and a test oracle: the
integration tests drive the packet-level TCP models against a fixed
marking probability and check the measured windows against these laws.

Notation: ``W`` is the steady-state window in segments, ``p`` the
congestion-signal (drop or mark) probability, ``R`` the RTT in seconds.
"""

from __future__ import annotations

import math

__all__ = [
    "signals_per_rtt",
    "scalability_exponent",
    "is_scalable",
    "B_RENO",
    "B_CRENO",
    "B_CUBIC",
    "B_DCTCP_PROB",
    "B_DCTCP_STEP",
    "window_reno",
    "window_creno",
    "window_cubic",
    "window_dctcp",
    "window_dctcp_step",
    "p_for_window_reno",
    "p_for_window_creno",
    "p_for_window_dctcp",
    "cubic_operates_as_creno",
    "coupled_classic_probability",
    "k_analytic",
]

# --------------------------------------------------------------------------
# Scalability (Section 2, equations (1)–(3))
# --------------------------------------------------------------------------

#: Characteristic exponents B of W ∝ 1/p^B (equation (2) / Appendix A).
B_RENO = 0.5
B_CRENO = 0.5
B_CUBIC = 0.75
B_DCTCP_PROB = 1.0
B_DCTCP_STEP = 2.0


def signals_per_rtt(window: float, p: float) -> float:
    """Equation (1): congestion signals per round trip, c = p·W."""
    if window <= 0:
        raise ValueError(f"window must be positive (got {window})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0,1] (got {p})")
    return p * window


def scalability_exponent(b: float) -> float:
    """Equation (3)'s exponent: c ∝ W^(1−1/B)."""
    if b <= 0:
        raise ValueError(f"B must be positive (got {b})")
    return 1.0 - 1.0 / b


def is_scalable(b: float) -> bool:
    """Section 2's criterion: scalable iff B ≥ 1 (signals per RTT do not
    shrink as the flow rate scales up)."""
    return b >= 1.0


# --------------------------------------------------------------------------
# Window laws (equations (5)–(12))
# --------------------------------------------------------------------------

def _check_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability must be in (0,1] (got {p})")


def window_reno(p: float) -> float:
    """Equation (5): W = 1.22/√p (Mathis et al. [25])."""
    _check_p(p)
    return 1.22 / math.sqrt(p)


def window_creno(p: float) -> float:
    """Equation (7): W = 1.68/√p — Cubic in its Reno mode (β = 0.7).

    The constant follows from AIMD analysis with decrease factor β:
    W = sqrt( (1+β)/(2(1−β)) · 2 ) /√p ⇒ 1.68 for β = 0.7.
    """
    _check_p(p)
    return 1.68 / math.sqrt(p)


def window_cubic(p: float, rtt: float) -> float:
    """Equation (6): W = 1.17·R^¾ / p^¾ (pure Cubic region, Ha et al. [16])."""
    _check_p(p)
    if rtt <= 0:
        raise ValueError(f"RTT must be positive (got {rtt})")
    return 1.17 * rtt ** 0.75 / p ** 0.75


def window_dctcp(p: float) -> float:
    """Equation (11): W = 2/p — DCTCP under *probabilistic* marking.

    Derived in Appendix A from the per-RTT balance: increase of one
    segment per RTT versus decrease W·(p/2) per RTT.
    """
    _check_p(p)
    return 2.0 / p


def window_dctcp_step(p: float) -> float:
    """Equation (12): W = 2/p² — DCTCP against a *step* (on-off) marker,
    the law the original DCTCP paper [2] derives."""
    _check_p(p)
    return 2.0 / (p * p)


# --------------------------------------------------------------------------
# Inverses (signal probability required for a given window)
# --------------------------------------------------------------------------

def _check_w(window: float) -> None:
    if window <= 0:
        raise ValueError(f"window must be positive (got {window})")


def p_for_window_reno(window: float) -> float:
    _check_w(window)
    return (1.22 / window) ** 2


def p_for_window_creno(window: float) -> float:
    _check_w(window)
    return (1.68 / window) ** 2


def p_for_window_dctcp(window: float) -> float:
    _check_w(window)
    return 2.0 / window


# --------------------------------------------------------------------------
# Cubic's CReno switch-over (equation (8))
# --------------------------------------------------------------------------

def cubic_operates_as_creno(window: float, rtt: float) -> bool:
    """Equation (8): Cubic behaves as CReno while W·R^{3/2} < 3.5.

    ``rtt`` in seconds.  Above the threshold the pure-cubic window (6)
    takes over.
    """
    _check_w(window)
    if rtt <= 0:
        raise ValueError(f"RTT must be positive (got {rtt})")
    return window * rtt ** 1.5 < 3.5


# --------------------------------------------------------------------------
# Coupling for equal steady-state rate (equations (13)–(14))
# --------------------------------------------------------------------------

def k_analytic() -> float:
    """Equation (14)'s analytic coupling factor k = 2/1.68 ≈ 1.19."""
    return 2.0 / 1.68


def coupled_classic_probability(p_dctcp: float, k: float | None = None) -> float:
    """Equation (14): p_creno = (p_dctcp / k)² for equal flow rates.

    Defaults to the analytic k ≈ 1.19; the paper deploys k = 2.
    """
    _check_p(p_dctcp)
    k = k_analytic() if k is None else k
    if k <= 0:
        raise ValueError(f"k must be positive (got {k})")
    return (p_dctcp / k) ** 2
