"""Statistical helpers for the paper's evaluation metrics.

Everything Figures 14–20 report reduces to a handful of reusable
computations: percentile summaries of per-packet queue delay, the
per-class rate-balance ratio, normalized per-flow rates, and the
geometric mean the grid claims average balance ratios with.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

import numpy as np

__all__ = [
    "percentile_summary",
    "rate_balance_ratio",
    "normalized_rates",
    "geometric_mean",
]


def percentile_summary(
    samples: Sequence[float], percentiles: Iterable[float] = (1, 25, 50, 99)
) -> Dict[str, float]:
    """Mean plus the requested percentiles, keyed 'mean', 'p1', 'p25', ...

    Figure 16 uses mean and P99; Figure 17 P25/mean/P99; Figures 18 and 20
    P1/mean/P99 — all served by this one helper.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        out = {"mean": math.nan}
        out.update({f"p{int(q)}": math.nan for q in percentiles})
        return out
    out = {"mean": float(np.mean(arr))}
    for q in percentiles:
        out[f"p{int(q)}"] = float(np.percentile(arr, q))
    return out


def rate_balance_ratio(
    rates_a: Sequence[float], rates_b: Sequence[float]
) -> float:
    """Per-flow throughput ratio between two classes (Figures 15 and 19).

    Defined as mean-per-flow rate of class A divided by class B's.  The
    paper's coexistence goal is a ratio ≈ 1; PIE's DCTCP-starves-Cubic
    pathology shows up as ≈ 0.1 for Cubic/DCTCP.
    """
    a = np.asarray(rates_a, dtype=float)
    b = np.asarray(rates_b, dtype=float)
    if a.size == 0 or b.size == 0:
        return math.nan
    mean_b = float(np.mean(b))
    if mean_b == 0:
        return math.inf
    return float(np.mean(a)) / mean_b


def normalized_rates(
    per_flow_rates: Sequence[float], capacity_bps: float, total_flows: int
) -> List[float]:
    """Per-flow rate divided by the equal-share 'fair' rate (Figure 20).

    ``fair = capacity / total_flows`` across *all* concurrent flows of
    both classes, as the figure's caption defines.
    """
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive (got {capacity_bps})")
    if total_flows <= 0:
        raise ValueError(f"total_flows must be positive (got {total_flows})")
    fair = capacity_bps / total_flows
    return [r / fair for r in per_flow_rates]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, ignoring non-positive entries (log-domain average)."""
    arr = np.asarray([v for v in values if v > 0], dtype=float)
    if arr.size == 0:
        return math.nan
    return float(np.exp(np.mean(np.log(arr))))
