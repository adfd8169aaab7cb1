"""PIE's stepped auto-tune lookup table and its √(2p) interpretation.

PIE scales its gain factors α and β down when the drop probability is
small, using a stepped lookup table (RFC 8033 §5.2; originally only three
steps in the 2013 PIE paper, extended down to 0.0001 % during IETF review
after Briscoe's criticism [6]).  Section 4 of the PI2 paper shows this
table "broadly fits the equation √(2p)": the heuristic table was an
empirical approximation of the analytic square-root law that PI2 obtains
exactly by squaring its linear output.  Figure 5 plots the two together;
the :func:`tune` / :func:`sqrt2p` pair below regenerates it, and the
``KPIE ≈ 1/√2`` identification follows from the fit.
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = ["TUNE_TABLE", "tune", "sqrt2p", "tune_table_rows", "K_PIE", "K_PI2"]

#: RFC 8033 auto-tune steps: (upper probability bound, divisor applied to Δp).
#: The scaling factor plotted in Figure 5 is ``1/divisor``.
TUNE_TABLE: List[Tuple[float, float]] = [
    (0.000001, 2048.0),
    (0.00001, 512.0),
    (0.0001, 128.0),
    (0.001, 32.0),
    (0.01, 8.0),
    (0.1, 2.0),
]

#: The implied scaling constant of PIE (Section 4): tune ≈ √(2p) ⇒ K ≈ 1/√2.
K_PIE = 1.0 / math.sqrt(2.0)

#: PI2's constant: 2.5× larger gains than PIE are stable (Section 4), so
#: K_PI2/K_PIE ≈ 2.5·√2 ≈ 3.5 (the paper's "5.5 dB" responsiveness gain).
K_PI2 = 2.5 * math.sqrt(2.0) * K_PIE


def tune(p: float) -> float:
    """PIE's stepped scaling factor applied to Δp at drop probability ``p``.

    Returns 1 for p ≥ 10 %, then halves/quarters/... down the RFC 8033
    table; this is the stepped curve of Figure 5.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0,1] (got {p})")
    for bound, divisor in TUNE_TABLE:
        if p < bound:
            return 1.0 / divisor
    return 1.0


def sqrt2p(p: float) -> float:
    """The analytic curve √(2p) that the tune table approximates (Fig 5)."""
    if p < 0:
        raise ValueError(f"probability must be non-negative (got {p})")
    return math.sqrt(2.0 * p)


def tune_table_rows(points_per_decade: int = 4) -> List[Tuple[float, float, float]]:
    """Sample (p, tune(p), √(2p)) across Figure 5's x-range [1e-7, 1].

    Used by the Figure 5 benchmark to print the stepped and analytic
    curves side by side and assert their ratio stays within one table step
    (a factor of 4) over the whole range the RFC covers.
    """
    rows = []
    decades = range(-7, 0)
    for decade in decades:
        for i in range(points_per_decade):
            p = 10.0 ** (decade + i / points_per_decade)
            if p > 1.0:
                break
            rows.append((p, tune(p), sqrt2p(p)))
    rows.append((1.0, tune(1.0), sqrt2p(1.0)))
    return rows
