"""Detached, picklable experiment results.

A live :class:`~repro.harness.experiment.ExperimentResult` drags the whole
testbed behind it — simulator, event heap, TCP state machines, per-flow
callbacks — which is exactly what the figures *don't* need and exactly
what :mod:`pickle` can't move: receiver callbacks are closures, the heap
still holds pending bound-method events.  :func:`freeze_result` copies the
figure-level read-outs into a :class:`FrozenResult`, a plain bag of time
series, arrays and counters that

* pickles cheaply (worker processes return it to the parent,
  :mod:`repro.harness.cache` stores it on disk), and
* answers the same metric API — it shares the
  :class:`~repro.harness.experiment.ResultMetrics` mixin, so
  ``sojourn_summary``/``balance``/``mean_utilization``/… behave
  identically to the live object.

What a frozen result deliberately does **not** carry: the testbed
(``.bed``), the AQM instance (``.aqm``), or per-flow congestion-window
traces — anything that would re-tether it to live simulation state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.harness.experiment import Experiment, ExperimentResult, ResultMetrics
from repro.metrics.series import TimeSeries

__all__ = ["FrozenResult", "freeze_result"]


class FrozenResult(ResultMetrics):
    """Snapshot of one completed run's read-outs, detached from the testbed."""

    def __init__(
        self,
        *,
        duration: float,
        warmup: float,
        queue_delay: TimeSeries,
        probability: TimeSeries,
        raw_probability: TimeSeries,
        utilization: TimeSeries,
        sojourns: TimeSeries,
        goodputs: Dict[str, List[float]],
        queue_stats,
        fault_timeline: List[Tuple[float, str]],
        invariant_checks: int,
        experiment: Optional[Experiment] = None,
        events_processed: int = 0,
        telemetry: Optional[Dict[str, object]] = None,
    ):
        self.duration = duration
        self.warmup = warmup
        self.queue_delay = queue_delay
        self.probability = probability
        self.raw_probability = raw_probability
        self.utilization = utilization
        self.sojourns = sojourns
        self._goodputs = goodputs
        self.queue_stats = queue_stats
        self.fault_timeline = fault_timeline
        self.invariant_checks = invariant_checks
        #: The experiment that produced this result, when it was picklable
        #: (named factories); None otherwise.
        self.experiment = experiment
        #: Engine events the run processed.
        self.events_processed = events_processed
        #: Flat end-of-run metric snapshot from the run's
        #: :class:`~repro.obs.metrics.MetricsRegistry` (None for results
        #: frozen before the observability layer existed, e.g. old cache
        #: entries — though the code fingerprint keys those out anyway).
        self.telemetry = telemetry

    # -- raw accessors required by ResultMetrics ---------------------------
    def sojourn_samples(self, from_warmup: bool = True) -> np.ndarray:
        """Per-packet bottleneck sojourn times, post-warmup by default."""
        t0 = self.warmup if from_warmup else 0.0
        return self.sojourns.window(t0, float("inf"))

    def goodputs(self, label: str) -> List[float]:
        """Per-flow goodput (bits/second) for one flow-class label."""
        return list(self._goodputs.get(label, []))

    def class_labels(self) -> List[str]:
        """Flow-class labels captured at freeze time."""
        return list(self._goodputs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FrozenResult duration={self.duration:.1f}s "
            f"classes={sorted(self._goodputs)}>"
        )


def freeze_result(
    result: ExperimentResult, keep_experiment: bool = True
) -> FrozenResult:
    """Copy a live result's figure-level read-outs into a :class:`FrozenResult`.

    The series objects are taken by reference, not copied — a completed
    run never appends again, and the live result is normally discarded
    right after freezing (worker processes, cache stores).
    """
    bed = result.bed
    goodputs = {
        label: [float(g) for g in result.goodputs(label)]
        for label in result.class_labels()
    }
    return FrozenResult(
        duration=result.duration,
        warmup=result.warmup,
        queue_delay=bed.queue_delay,
        probability=bed.probability,
        raw_probability=bed.raw_probability,
        utilization=bed.utilization,
        sojourns=bed.sojourns,
        goodputs=goodputs,
        queue_stats=bed.queue.stats,
        fault_timeline=result.fault_timeline,
        invariant_checks=result.invariant_checks,
        experiment=result.experiment if keep_experiment else None,
        events_processed=bed.sim.events_processed,
        telemetry=getattr(result, "telemetry", None),
    )
