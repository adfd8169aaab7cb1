"""Common AQM interface and the queue view it operates on.

Every AQM in this repository — the paper's PI2 and coupled PI+PI2, the PIE
baseline with all of its Linux heuristics, and the lineage algorithms (PI,
RED) — implements the small :class:`AQM` interface:

* :meth:`AQM.on_enqueue` is consulted for every arriving packet and returns
  a :class:`Decision` (pass / CE-mark / drop).  This mirrors the enqueue-
  side drop decision of the Linux ``sch_pie``/``sch_pi2`` qdiscs.  The
  queue binds it once, at construction, and counts each verdict in its
  own :class:`~repro.net.queue.QueueStats`; the AQM keeps no verdict
  counters, and its ``aqm.*`` telemetry derives them from the queue's.
* :attr:`AQM.on_dequeue` is ``None`` unless the algorithm observes
  departures; PIE with its measured departure-rate estimator sets it to a
  bound method.  The queue binds it once, at construction, and calls
  nothing per packet when it is ``None``.
* :meth:`AQM.attach` wires the AQM to a simulator (for its periodic update
  timer — the PI family recomputes probability every ``T`` seconds) and to
  the :class:`QueueView` it controls.

The queue exposes only what a real qdisc can observe: byte/packet backlog
and a queue-delay estimate (the exact backlog/capacity conversion; see
:mod:`repro.net.queue`).

An AQM built on a PI core keeps it in a ``controller`` attribute (a
:class:`~repro.aqm.pi.PIController`: PI, PIE, bare-PIE, adaptive PI, PI2
and the coupled AQM).  Such an AQM's :attr:`AQM.probability` must be a
function of ``controller.p`` alone, and ``controller.p`` changes only by
being rebound (a float cannot change in place), so the value is
unchanged for as long as ``controller.p`` is the same object; the
``controller`` itself is never replaced.  The trace hook of
:func:`repro.obs.trace.install_aqm_tracer` relies on this to build each
``aqm_decision`` line's ``p`` text once per controller step.  An AQM
whose probability depends on other state (RED's average queue, a step
threshold) has no ``controller``, and the hook reads its probability on
every record.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.errors import ControllerDivergence
from repro.units import Bytes, Packets, Probability, Seconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.packet import Packet
    from repro.net.queue import QueueStats
    from repro.sim.engine import Simulator


__all__ = [
    "Decision",
    "QueueView",
    "AQM",
    "clamp_unit",
    "guard_finite",
    "is_unit_probability",
]


def clamp_unit(value: float, upper: Probability = 1.0) -> Probability:
    """Clamp ``value`` into ``[0, upper]`` (``upper`` defaults to 1).

    The single clamp used at every probability write in the AQM layer, so
    the ``p ∈ [0, 1]`` domain invariant (and ``p ≤ p_max`` caps) is
    enforced in one place.  ``min(max(...))`` ordering makes NaN propagate
    rather than silently saturate — non-finite candidates must be rejected
    *before* clamping (see :func:`guard_finite`).
    """
    return min(max(value, 0.0), upper)


def guard_finite(value: float, message: str, component: str, **context: object) -> float:
    """Return ``value`` unchanged, raising ``ControllerDivergence`` if it
    is not finite.

    Shared by the controllers (reject NaN/inf *inputs and candidates*
    before they are clamped into the drop probability) and anything else
    that needs the same divergence semantics.  ``context`` is attached to
    the raised error for diagnosis.
    """
    if not math.isfinite(value):
        raise ControllerDivergence(message, component=component, context=dict(context))
    return value


def is_unit_probability(value: float) -> bool:
    """True iff ``value`` is a finite probability in ``[0, 1]``.

    The read-side twin of :func:`clamp_unit`: the runtime invariant
    checker (:mod:`repro.sim.invariants`) uses it to verify that every
    probability an AQM exposes actually satisfies the domain the write
    side enforces.
    """
    return math.isfinite(value) and 0.0 <= value <= 1.0


class Decision(enum.Enum):
    """Outcome of the enqueue-time AQM decision for one packet."""

    PASS = "pass"
    MARK = "mark"
    DROP = "drop"


class QueueView(Protocol):
    """The slice of queue state visible to an AQM."""

    def byte_length(self) -> Bytes:
        """Current backlog in bytes."""
        ...

    def packet_length(self) -> Packets:
        """Current backlog in packets."""
        ...

    def queue_delay(self) -> Seconds:
        """Estimated queuing delay in seconds for a packet arriving now."""
        ...

    @property
    def stats(self) -> "QueueStats":
        """The queue's counters, the AQM's verdicts among them."""
        ...


class AQM:
    """Base class for active queue management algorithms.

    Subclasses override :meth:`on_enqueue` and, when they are timer-driven
    (the whole PI family), :meth:`update`, which :meth:`attach` arranges to
    run every :attr:`update_interval` seconds of virtual time.

    The attribute :attr:`probability` exposes the algorithm's current
    *applied* congestion-signal probability for instrumentation — this is
    what Figure 17 plots.  For PI2 it is the squared value ``p = p'²``;
    the internal linear value is exposed as :attr:`raw_probability`.
    """

    #: Period of the PI update timer in seconds; None = no timer (e.g. RED).
    update_interval: Optional[Seconds] = None

    #: Departure observation ``(packet, now) -> None``; None = the
    #: algorithm does not observe departures.  An instance that needs one
    #: (PIE's measured rate estimator) sets it in its constructor.
    on_dequeue: Optional[Callable[["Packet", Seconds], None]] = None

    def __init__(self) -> None:
        self.sim: Optional["Simulator"] = None
        self.queue: Optional[QueueView] = None
        self._timer = None

    # -- lifecycle ------------------------------------------------------
    def attach(self, sim: "Simulator", queue: QueueView) -> None:
        """Bind to a simulator and queue; starts the update timer if any."""
        self.sim = sim
        self.queue = queue
        if self.update_interval is not None:
            self._timer = sim.every(self.update_interval, self.update)

    def pause_updates(self) -> None:
        """Suspend the periodic update timer (fault injection: a stalled
        AQM task).  Idempotent; a no-op for timerless AQMs."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def resume_updates(self) -> None:
        """Restart the update timer after :meth:`pause_updates`.

        The controller state (``p``, previous delay) is preserved across
        the stall — exactly what a real qdisc whose update task was
        starved would exhibit on resumption.
        """
        if self._timer is None and self.sim is not None and self.update_interval:
            self._timer = self.sim.every(self.update_interval, self.update)

    @property
    def update_timer(self):
        """The live :class:`~repro.sim.engine.PeriodicTimer`, if any
        (fault injectors attach jitter to it)."""
        return self._timer

    # -- datapath hooks ---------------------------------------------------
    def on_enqueue(self, packet: "Packet") -> Decision:
        """Per-packet decision; override in subclasses."""
        return Decision.PASS

    def update(self) -> None:
        """Periodic probability recomputation; override in PI-family AQMs."""

    # -- instrumentation --------------------------------------------------
    @property
    def probability(self) -> Probability:
        """Currently applied congestion-signal probability (for plots)."""
        return 0.0

    @property
    def raw_probability(self) -> Probability:
        """Internal controller variable (``p'`` for PI2); defaults to
        :attr:`probability` for single-stage algorithms."""
        return self.probability

    def register_metrics(self, registry: object) -> None:
        """Register the AQM's counters under the ``aqm.`` prefix.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`
        (duck-typed; the AQM layer never imports the observability
        layer).  The provider is evaluated at snapshot time, so the
        exported values are end-of-run state.
        """
        registry.register_provider("aqm", self._metrics_snapshot)  # type: ignore[attr-defined]

    def _metrics_snapshot(self) -> dict:
        """Flat metric values: decision counters plus probabilities.

        The decision counters come from the attached queue's
        :class:`~repro.net.queue.QueueStats` (``decisions``, ``passed``,
        ``ce_marked``, ``aqm_dropped``), which counts each verdict it
        applied.
        PI-family subclasses contribute their controller state through
        ``PIController.state()`` when a ``controller`` attribute is
        present; coupled AQMs additionally expose their Classic-branch
        probability.
        """
        if self.queue is None:  # not attached: no verdicts yet
            decisions = passed = marked = dropped = 0
        else:
            stats = self.queue.stats
            decisions, passed = stats.decisions, stats.passed
            marked, dropped = stats.ce_marked, stats.aqm_dropped
        out: dict = {
            "kind": type(self).__name__,
            "decisions": decisions,
            "passed": passed,
            "marked": marked,
            "dropped": dropped,
            "signal_fraction": (marked + dropped) / decisions if decisions else 0.0,
            "probability": self.probability,
            "raw_probability": self.raw_probability,
        }
        controller = getattr(self, "controller", None)
        if controller is not None and hasattr(controller, "state"):
            for key, value in controller.state().items():
                out[f"controller.{key}"] = value
        classic = getattr(self, "classic_probability", None)
        if classic is not None:
            out["classic_probability"] = classic
        return out
