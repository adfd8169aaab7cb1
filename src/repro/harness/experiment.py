"""Experiment configuration and runner.

An :class:`Experiment` is a declarative description of one testbed run —
bottleneck rate (and optional schedule of rate changes), AQM factory,
TCP/UDP flow groups, duration and warm-up — and :func:`run_experiment`
executes it, returning an :class:`ExperimentResult` with exactly the
read-outs the paper's figures need:

* sampled queue delay, probability and utilization series;
* per-packet bottleneck sojourn times (for CDFs / percentiles);
* per-flow and per-class goodputs over the measurement window
  (everything after ``warmup``);
* queue and AQM counters.

The AQM is supplied as a *factory* taking the experiment's seeded stream
so that every run gets reproducible, isolated randomness.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aqm.base import AQM
from repro.errors import ConfigError
from repro.harness.topology import Dumbbell
from repro.metrics.stats import percentile_summary, rate_balance_ratio
from repro.net.faults import Fault
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import engine_tracer, install_aqm_tracer
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.tcp import SENDERS

__all__ = [
    "FlowGroup",
    "UdpGroup",
    "Experiment",
    "ResultMetrics",
    "ExperimentResult",
    "run_experiment",
]

#: An AQM factory: receives a dedicated random stream, returns the AQM
#: (or None for tail-drop).
AqmFactory = Callable[[random.Random], Optional[AQM]]


@dataclass(frozen=True)
class FlowGroup:
    """``count`` TCP flows sharing one congestion control and base RTT."""

    cc: str
    count: int
    rtt: float
    start: float = 0.0
    stop: Optional[float] = None
    label: Optional[str] = None
    flow_size: Optional[int] = None
    sack: bool = False

    def __post_init__(self) -> None:
        # NaN passes a ``<= 0`` check and fails only inside the run, as
        # does an infinite count.
        if not (self.count > 0 and math.isfinite(self.count)):
            raise ConfigError(f"count must be positive and finite (got {self.count})")


@dataclass(frozen=True)
class UdpGroup:
    """``count`` constant-bit-rate unresponsive flows."""

    rate_bps: float
    count: int = 1
    start: float = 0.0
    stop: Optional[float] = None
    label: str = "udp"


def _check_window(name: str, start: float, stop: Optional[float]) -> None:
    """A group's ``start`` must be finite and non-negative, and its
    ``stop``, when set, after it: a NaN ``stop`` would never stop the
    flow, and one at or before ``start`` would start a flow that sends
    nothing."""
    if not (start >= 0 and math.isfinite(start)):  # also rejects NaN
        raise ConfigError(
            f"{name} start must be non-negative and finite (got {start})"
        )
    if stop is not None and not stop > start:
        raise ConfigError(f"{name} stop ({stop}) must be after start ({start})")


@dataclass
class Experiment:
    """One run's declarative description."""

    capacity_bps: float
    duration: float
    aqm_factory: AqmFactory
    flows: Sequence[FlowGroup] = field(default_factory=list)
    udp: Sequence[UdpGroup] = field(default_factory=list)
    warmup: float = 5.0
    buffer_packets: int = 40_000
    seed: int = 1
    sample_period: float = 1.0
    record_sojourns: bool = True
    #: Optional (time, capacity_bps) schedule for mid-run rate changes.
    capacity_schedule: Sequence[Tuple[float, float]] = field(default_factory=tuple)
    #: Declarative fault schedule (see :mod:`repro.net.faults`).
    faults: Sequence[Fault] = field(default_factory=tuple)
    #: Run the periodic invariant checker alongside the simulation.
    validate: bool = False
    #: Watchdog budgets for the run (None = unlimited).
    max_events: Optional[int] = None
    max_wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # NaN fails every comparison and an infinite duration never ends,
        # so each of these must be a finite positive number.
        if not (self.capacity_bps > 0 and math.isfinite(self.capacity_bps)):
            raise ConfigError(
                f"capacity must be positive and finite (got {self.capacity_bps})"
            )
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ConfigError(
                f"duration must be positive and finite (got {self.duration})"
            )
        for index, group in enumerate(self.flows):
            if group.cc not in SENDERS:
                raise ConfigError(
                    f"flows[{index}] has unknown congestion control "
                    f"{group.cc!r}; choose from {sorted(SENDERS)}"
                )
            if not (group.rtt > 0 and math.isfinite(group.rtt)):
                raise ConfigError(
                    f"flows[{index}] rtt must be positive and finite "
                    f"(got {group.rtt})"
                )
            if group.flow_size is not None and not group.flow_size > 0:
                raise ConfigError(
                    f"flows[{index}] flow_size must be positive "
                    f"(got {group.flow_size})"
                )
            _check_window(f"flows[{index}]", group.start, group.stop)
        for index, udp in enumerate(self.udp):
            if not (udp.rate_bps > 0 and math.isfinite(udp.rate_bps)):
                raise ConfigError(
                    f"udp[{index}] rate_bps must be positive and finite "
                    f"(got {udp.rate_bps})"
                )
            if not udp.count > 0:
                raise ConfigError(
                    f"udp[{index}] count must be positive (got {udp.count})"
                )
            _check_window(f"udp[{index}]", udp.start, udp.stop)
        if not 0 <= self.warmup < self.duration:
            raise ConfigError(
                f"warmup must be in [0, duration) (got {self.warmup} vs {self.duration})"
            )
        # ``not x > 0`` so that NaN fails too: a NaN sample period fails
        # only inside the run, a NaN buffer never tail-drops and a NaN
        # watchdog budget never trips.  An infinite sample period takes
        # no sample, so every series summary would read NaN.
        if not (self.sample_period > 0 and math.isfinite(self.sample_period)):
            raise ConfigError(
                f"sample_period must be positive and finite (got {self.sample_period})"
            )
        if not self.buffer_packets > 0:
            raise ConfigError(
                f"buffer_packets must be positive (got {self.buffer_packets})"
            )
        if self.max_events is not None and not self.max_events > 0:
            raise ConfigError(f"max_events must be positive (got {self.max_events})")
        if self.max_wall_seconds is not None and not self.max_wall_seconds > 0:
            raise ConfigError(
                f"max_wall_seconds must be positive (got {self.max_wall_seconds})"
            )
        self._validate_capacity_schedule()
        self._validate_faults()

    def _validate_capacity_schedule(self) -> None:
        """Reject schedules that would otherwise fail deep inside ``sim.at``
        (or worse, silently never fire) with no configuration context."""
        previous = None
        for index, entry in enumerate(self.capacity_schedule):
            try:
                when, rate = entry
            except (TypeError, ValueError):
                raise ConfigError(
                    f"capacity_schedule[{index}] must be a (time, rate_bps) "
                    f"pair (got {entry!r})"
                ) from None
            if not when >= 0:  # also rejects NaN
                raise ConfigError(
                    f"capacity_schedule[{index}] time cannot be negative "
                    f"(got {when})"
                )
            if when >= self.duration:
                raise ConfigError(
                    f"capacity_schedule[{index}] time {when} is outside "
                    f"[0, duration={self.duration})"
                )
            if not (rate > 0 and math.isfinite(rate)):
                raise ConfigError(
                    f"capacity_schedule[{index}] rate must be positive "
                    f"(got {rate})"
                )
            if previous is not None and when < previous:
                raise ConfigError(
                    f"capacity_schedule must be sorted by time "
                    f"({when} after {previous})"
                )
            previous = when

    def _validate_faults(self) -> None:
        for index, fault in enumerate(self.faults):
            if not isinstance(fault, Fault):
                raise ConfigError(
                    f"faults[{index}] must be a Fault (got {type(fault).__name__})"
                )
            if fault.start >= self.duration:
                raise ConfigError(
                    f"faults[{index}] starts at {fault.start}, outside "
                    f"[0, duration={self.duration})"
                )


class ResultMetrics:
    """Derived read-outs shared by live and frozen experiment results.

    Subclasses provide the raw accessors — the sampled series properties
    (``queue_delay``/``probability``/``utilization``), per-packet
    :meth:`sojourn_samples`, per-class :meth:`goodputs` and
    :meth:`class_labels`, plus ``duration``/``warmup`` — and this mixin
    supplies every metric the figures compute from them.  Keeping the
    derivations here guarantees a :class:`~repro.harness.frozen.FrozenResult`
    (what parallel workers return and the result cache stores) answers
    identically to the live :class:`ExperimentResult` it was frozen from.
    """

    def sojourn_summary(self, percentiles=(1, 25, 50, 99)) -> Dict[str, float]:
        """Mean/percentile summary of per-packet sojourn times (seconds)."""
        return percentile_summary(self.sojourn_samples(), percentiles)

    def balance(self, label_a: str, label_b: str) -> float:
        """Rate-balance ratio between two flow classes (Figure 15 metric)."""
        return rate_balance_ratio(self.goodputs(label_a), self.goodputs(label_b))

    def total_goodput_bps(self) -> float:
        """Sum of goodput over every flow class, in bits/second."""
        return sum(
            sum(self.goodputs(label)) for label in self.class_labels()
        )

    def mean_utilization(self) -> float:
        """Mean bottleneck utilization after warmup (0..1)."""
        return self.utilization.mean(self.warmup)

    def utilization_summary(self, percentiles=(1, 99)) -> Dict[str, float]:
        """Percentile summary of the post-warmup utilization samples."""
        return percentile_summary(
            self.utilization.window(self.warmup, float("inf")), percentiles
        )

    def probability_summary(self, percentiles=(25, 99)) -> Dict[str, float]:
        """Percentile summary of the applied AQM probability (Figure 17)."""
        return percentile_summary(
            self.probability.window(self.warmup, float("inf")), percentiles
        )

    def digest(self) -> Dict[str, object]:
        """Exact (un-rounded) fingerprint of the run's headline read-outs.

        Two runs of the same seeded experiment must produce equal digests
        — serial or parallel, live or frozen, cached or fresh.  The perf
        harness and CI's determinism check compare these.
        """
        stats = self.queue_stats
        return {
            "queue_delay": [list(map(float, self.queue_delay.times)),
                            list(map(float, self.queue_delay.values))],
            "utilization": list(map(float, self.utilization.values)),
            "probability": list(map(float, self.probability.values)),
            "sojourn_sum": float(np.sum(self.sojourn_samples(from_warmup=False))),
            "sojourn_count": int(self.sojourn_samples(from_warmup=False).size),
            "goodputs": {
                label: [float(g) for g in self.goodputs(label)]
                for label in sorted(self.class_labels())
            },
            "counters": {
                "arrived": stats.arrived,
                "dequeued": stats.dequeued,
                "aqm_dropped": stats.aqm_dropped,
                "tail_dropped": stats.tail_dropped,
                "fault_dropped": stats.fault_dropped,
                "ce_marked": stats.ce_marked,
            },
        }

    def digest_hex(self) -> str:
        """Compact SHA-256 of :meth:`digest` (canonical JSON serialization).

        The same bit-exactness contract as :meth:`digest`, in a form that
        is cheap to store and compare: the result journal stamps every
        record with it, and the chaos tests compare interrupted-then-
        resumed sweeps against uninterrupted runs through it.  Python's
        ``repr``-exact float serialization makes equal runs hash equal.
        """
        payload = json.dumps(
            self.digest(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()


class ExperimentResult(ResultMetrics):
    """Read-outs of one completed run, backed by the live testbed."""

    def __init__(self, experiment: Experiment, bed: Dumbbell):
        self.experiment = experiment
        self.bed = bed
        self.duration = experiment.duration
        self.warmup = experiment.warmup
        #: Flat end-of-run metric snapshot (``engine.*``, ``aqm.*``,
        #: ``link.*``); populated by :func:`run_experiment`, carried into
        #: :class:`~repro.harness.frozen.FrozenResult`, and deliberately
        #: excluded from :meth:`ResultMetrics.digest`.
        self.telemetry: Optional[Dict[str, object]] = None

    # -- series ----------------------------------------------------------
    @property
    def queue_delay(self):
        """Sampled queue-delay time series at the bottleneck."""
        return self.bed.queue_delay

    @property
    def probability(self):
        """Sampled applied AQM probability (p) time series."""
        return self.bed.probability

    @property
    def raw_probability(self):
        """Sampled internal controller variable (p' for PI2)."""
        return self.bed.raw_probability

    @property
    def utilization(self):
        """Sampled bottleneck utilization time series (0..1)."""
        return self.bed.utilization

    # -- per-packet sojourns ------------------------------------------------
    def sojourn_samples(self, from_warmup: bool = True) -> np.ndarray:
        """Per-packet bottleneck sojourn times, post-warmup by default."""
        t0 = self.warmup if from_warmup else 0.0
        return self.bed.sojourns.window(t0, float("inf"))

    # -- flow rates -----------------------------------------------------------
    def goodputs(self, label: str) -> List[float]:
        """Per-flow goodput (bits/second) for one flow-class label."""
        return self.bed.goodput_bps(label, self.duration)

    def class_labels(self) -> List[str]:
        """Flow-class labels present in this experiment (e.g. 'dctcp')."""
        return self.bed.flows.labels()

    @property
    def queue_stats(self):
        """Bottleneck queue counters (arrived/dropped/marked/...)."""
        return self.bed.queue.stats

    @property
    def aqm(self):
        """The live AQM instance under test (for counter inspection)."""
        return self.bed.aqm

    # -- robustness read-outs -------------------------------------------------
    @property
    def fault_timeline(self) -> List[Tuple[float, str]]:
        """(virtual time, event) pairs of every injected-fault transition."""
        injector = self.bed.fault_injector
        return list(injector.timeline) if injector is not None else []

    @property
    def invariant_checks(self) -> int:
        """Number of periodic invariant passes that ran (0 = validation off)."""
        checker = self.bed.invariant_checker
        return checker.checks_run if checker is not None else 0


def run_experiment(
    experiment: Experiment, tracer: Optional[object] = None
) -> ExperimentResult:
    """Build the dumbbell, run to ``duration``, and collect results.

    Fault schedules, the invariant checker and the run watchdog are all
    wired here from the experiment's declarative fields; a failing run
    raises a structured :class:`~repro.errors.SimulationError` carrying
    virtual-time and component context.

    ``tracer`` is an optional :class:`~repro.obs.trace.Tracer`.  It is a
    pure observer: the AQM's control-law hooks and the engine's dispatch
    loop emit typed events into it, but results are bit-exact
    (``digest()``-equal) with tracing on or off.  Independent of the
    tracer, every run registers its components into a
    :class:`~repro.obs.metrics.MetricsRegistry` whose snapshot lands on
    ``result.telemetry``.
    """
    sim = Simulator()
    streams = RandomStreams(experiment.seed)
    aqm = experiment.aqm_factory(streams.stream("aqm"))
    # Instrumentation must precede Dumbbell construction: attaching the
    # AQM binds ``aqm.update`` into its periodic timer, so the traced
    # wrapper has to be installed first to be the bound target.
    install_aqm_tracer(aqm, tracer)
    sim.set_tracer(engine_tracer(tracer))
    registry = MetricsRegistry()
    registry.set("seed", experiment.seed)
    sim.register_metrics(registry)
    if aqm is not None:
        aqm.register_metrics(registry)
    bed = Dumbbell(
        sim,
        streams,
        experiment.capacity_bps,
        aqm,
        buffer_packets=experiment.buffer_packets,
        sample_period=experiment.sample_period,
        record_sojourns=experiment.record_sojourns,
    )
    for group in experiment.flows:
        for _ in range(group.count):
            bed.add_tcp_flow(
                group.cc,
                rtt=group.rtt,
                start=group.start,
                stop=group.stop,
                flow_size=group.flow_size,
                label=group.label or group.cc,
                sack=group.sack,
            )
    for group in experiment.udp:
        for _ in range(group.count):
            bed.add_udp_flow(
                group.rate_bps, start=group.start, stop=group.stop, label=group.label
            )
    for when, rate in experiment.capacity_schedule:
        sim.at(when, bed.set_capacity, rate)
    if experiment.faults:
        bed.install_faults(experiment.faults, streams.stream("faults"))
    if experiment.validate:
        bed.enable_validation()
    if experiment.max_events is not None or experiment.max_wall_seconds is not None:
        sim.set_watchdog(
            max_events=experiment.max_events,
            max_wall_seconds=experiment.max_wall_seconds,
        )

    bed.link.register_metrics(registry)

    sim.at(experiment.warmup, bed.flows.open_windows, experiment.warmup)
    sim.run(until=experiment.duration)
    if bed.invariant_checker is not None:
        bed.invariant_checker.check_now()
    result = ExperimentResult(experiment, bed)
    result.telemetry = registry.snapshot()
    return result
