"""Confidence intervals over repeated seeds.

A single seeded run is reproducible but still one sample of a stochastic
system.  A figure that repeats its cells over several seeds (the
``abl_decision_modes`` ablation) reduces each scalar metric to mean ± a
t-distribution confidence interval with :func:`_estimate`, so claims
like "the two decision modes give the same delay" carry error bars
instead of single numbers.

The t quantiles are tabulated for the small repetition counts that make
sense here (2–30 runs), avoiding a scipy dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["MetricEstimate"]

#: Two-sided 95 % Student-t quantiles by degrees of freedom.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 25: 2.060, 29: 2.045,
}


def _t95(dof: int) -> float:
    if dof <= 0:
        return math.inf
    keys = sorted(_T95)
    for k in keys:
        if dof <= k:
            return _T95[k]
    return 1.96  # normal limit


@dataclass(frozen=True)
class MetricEstimate:
    """Mean, 95 % confidence half-width, and the raw per-seed samples."""

    mean: float
    ci95: float
    samples: tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} ± {self.ci95:.2g} (n={len(self.samples)})"


def _estimate(samples: Sequence[float]) -> MetricEstimate:
    n = len(samples)
    mean = sum(samples) / n
    if n < 2:
        return MetricEstimate(mean, math.inf, tuple(samples))
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = _t95(n - 1) * math.sqrt(var / n)
    return MetricEstimate(mean, half, tuple(samples))
