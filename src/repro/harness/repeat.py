"""Multi-seed repetition with confidence intervals.

A single seeded run is reproducible but still one sample of a stochastic
system.  :func:`repeat_experiment` re-runs an experiment across seeds and
aggregates any scalar metric into mean ± a t-distribution confidence
interval, so claims like "PI2's queue delay equals PIE's" can be made
with error bars instead of single numbers.

The t quantiles are tabulated for the small repetition counts that make
sense here (2–30 runs), avoiding a scipy dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

from repro.harness.experiment import Experiment, ExperimentResult
from repro.harness.parallel import RunReport, SweepTask, execute_tasks
from repro.harness.resilience import RunFailure

__all__ = ["MetricEstimate", "RepeatOutcome", "repeat_experiment", "compare_metric"]

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

    @property
    def low(self) -> float:
        """Lower edge of the 95 % confidence interval."""
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        """Upper edge of the 95 % confidence interval."""
        return self.mean + self.ci95

    def overlaps(self, other: "MetricEstimate") -> bool:
        """Whether the two 95 % intervals overlap (a quick equality read)."""
        return self.low <= other.high and other.low <= self.high

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


class RepeatOutcome(Dict[str, MetricEstimate]):
    """Metric estimates plus the failure report of any seeds that died.

    A plain ``{metric: estimate}`` dict (existing callers keep working)
    with :attr:`failures` listing one
    :class:`~repro.harness.resilience.RunFailure` per seed that failed
    every retry (those seeds contribute no samples) and :attr:`recovery`
    holding the cell pipeline's :class:`~repro.harness.parallel.RunReport`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures: List[RunFailure] = []
        self.recovery = RunReport()

    @property
    def complete(self) -> bool:
        """True when every seed produced a sample (no failures)."""
        return not self.failures


def repeat_experiment(
    experiment: Experiment,
    metrics: Dict[str, Callable[[ExperimentResult], float]],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    on_error: str = "raise",
    max_retries: int = 1,
    jobs=None,
    cache=None,
    supervisor=None,
    journal=None,
    resume: bool = False,
) -> RepeatOutcome:
    """Run the experiment once per seed; estimate each metric.

    ``metrics`` maps a name to an extractor over the result, e.g.
    ``{"delay": lambda r: r.sojourn_summary()["mean"]}``.

    ``on_error="capture"`` makes a failing seed retry on bumped seeds
    (``max_retries`` extra attempts) and, failing that, be recorded on
    the returned outcome's ``failures`` instead of killing the whole
    repetition; estimates are then built from the surviving seeds (the
    outcome may be empty if every seed failed).

    The seeds run through :func:`~repro.harness.parallel.execute_tasks`;
    ``jobs``/``cache``/``supervisor``/``journal``/``resume`` behave as in
    :func:`~repro.harness.sweep.run_coexistence_grid`.  Metric extractors
    always run in the calling process, over the returned results — so
    they may be arbitrary (unpicklable) callables, and per-seed numbers
    are identical on every backend.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    if not metrics:
        raise ValueError("at least one metric is required")
    collected: Dict[str, List[float]] = {name: [] for name in metrics}
    outcome = RepeatOutcome()
    tasks = [
        SweepTask(f"seed {seed}", replace(experiment, seed=seed))
        for seed in seeds
    ]
    pairs = execute_tasks(
        tasks, jobs=jobs, on_error=on_error, max_retries=max_retries,
        cache=cache, supervisor=supervisor, journal=journal, resume=resume,
        report=outcome.recovery,
    )
    for result, failure in pairs:
        if result is None:
            outcome.failures.append(failure)
            continue
        for name, extract in metrics.items():
            collected[name].append(float(extract(result)))
    outcome.update(
        {
            name: _estimate(samples)
            for name, samples in collected.items()
            if samples
        }
    )
    return outcome


def compare_metric(
    experiment_a: Experiment,
    experiment_b: Experiment,
    metric: Callable[[ExperimentResult], float],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
) -> tuple:
    """Estimate one metric under two configurations over the same seeds.

    Returns ``(estimate_a, estimate_b)``; sharing seeds pairs the runs so
    non-AQM randomness cancels out of the comparison.
    """
    a = repeat_experiment(experiment_a, {"m": metric}, seeds)["m"]
    b = repeat_experiment(experiment_b, {"m": metric}, seeds)["m"]
    return a, b
