"""Structured exception hierarchy for the simulator and harness.

Every error raised from inside a running simulation carries enough context
to locate the failure without a debugger: the virtual time at which it
occurred, the component that raised it, and any key/value details the
raiser chose to attach.  The harness's resilient runners
(:mod:`repro.harness.resilience`) rely on this structure to build failure
reports for sweeps that continue past a broken cell instead of dying on it.

Hierarchy
---------

* :class:`ReproError` — root of everything this package raises on purpose.

  * :class:`ConfigError` — invalid experiment configuration, raised
    before any simulation work starts.  Subclasses :class:`ValueError` so
    callers validating inputs the old way keep working.
  * :class:`SimulationError` — something went wrong *during* a run; carries
    ``sim_time``/``component``/``context``.

    * :class:`CallbackError` — an event callback raised a non-structured
      exception; the engine wraps it with the event's virtual time and the
      callback's name (the original exception is chained as ``__cause__``).
    * :class:`WatchdogExceeded` — the run watchdog's event-count or
      wall-clock budget was exhausted (a runaway or livelocked run).
    * :class:`InvariantViolation` — an internal consistency check failed
      (packet conservation, probability range, clock monotonicity, ...).

      * :class:`ControllerDivergence` — a PI controller produced a
        non-finite probability (NaN/inf input or unstable arithmetic).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "CallbackError",
    "WatchdogExceeded",
    "InvariantViolation",
    "ControllerDivergence",
    "ParallelExecutionError",
    "FigureGenerationError",
    "JournalError",
]


class ReproError(Exception):
    """Base class for every deliberate error raised by this package."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration detected before the simulation starts."""


class SimulationError(ReproError):
    """An error raised while the simulation was running.

    Parameters
    ----------
    message:
        Human-readable description of what went wrong.
    sim_time:
        Virtual time (seconds) at which the failure occurred.  The engine
        fills this in when the raiser could not (e.g. a component with no
        simulator reference).
    component:
        Name of the component that detected the failure, e.g.
        ``"PIController"`` or ``"AQMQueue"``.
    context:
        Extra key/value details (observed values, limits, counters).
    """

    def __init__(
        self,
        message: str,
        *,
        sim_time: Optional[float] = None,
        component: Optional[str] = None,
        context: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message)
        self.message = message
        self.sim_time = sim_time
        self.component = component
        self.context = dict(context) if context else {}

    def __str__(self) -> str:
        parts = [self.message]
        where = []
        if self.sim_time is not None:
            where.append(f"t={self.sim_time:.6f}s")
        if self.component:
            where.append(f"component={self.component}")
        for key, value in self.context.items():
            where.append(f"{key}={value!r}")
        if where:
            parts.append(f"[{' '.join(where)}]")
        return " ".join(parts)


class CallbackError(SimulationError):
    """An event callback raised; re-raised with sim-time and callback name.

    The original exception is available as ``__cause__`` (standard
    exception chaining), so tracebacks show both the failure site and the
    event that triggered it.
    """

    def __init__(
        self,
        message: str,
        *,
        callback: Optional[str] = None,
        **kwargs: Any,
    ):
        super().__init__(message, **kwargs)
        self.callback = callback
        if callback:
            self.context.setdefault("callback", callback)


class WatchdogExceeded(SimulationError):
    """The run watchdog's event-count or wall-clock budget ran out."""


class InvariantViolation(SimulationError):
    """An internal consistency invariant does not hold.

    ``invariant`` names which check failed (``"conservation"``,
    ``"probability_range"``, ``"clock_monotonic"``, ...).
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: Optional[str] = None,
        **kwargs: Any,
    ):
        super().__init__(message, **kwargs)
        self.invariant = invariant
        if invariant:
            self.context.setdefault("invariant", invariant)


class ControllerDivergence(InvariantViolation):
    """A PI controller produced or received a non-finite value."""


class ParallelExecutionError(ReproError):
    """A sweep cell failed inside a worker process (``on_error="raise"``).

    The original exception happened in another process; what crosses the
    boundary is its type name, message and structured context, carried
    here so the parent still learns where and when the cell died.
    """

    def __init__(
        self,
        message: str,
        *,
        label: Optional[str] = None,
        error_type: Optional[str] = None,
        sim_time: Optional[float] = None,
        component: Optional[str] = None,
    ):
        super().__init__(message)
        self.label = label
        self.error_type = error_type
        self.sim_time = sim_time
        self.component = component


class FigureGenerationError(ReproError):
    """A simulation-backed figure cell failed to produce a result.

    Figure cells run through the cell pipeline, which reports failures
    as structured :class:`~repro.harness.resilience.RunFailure` records
    rather than exceptions, whatever backend ran the cell.
    :func:`~repro.harness.figures.generate_figure` converts such a
    record into this error so a broken cell fails *at the cell*, with the
    figure name, the cell's label, the worker-side exception type and the
    virtual time of death — instead of handing ``None`` to plotting code
    that crashes later with an unrelated ``AttributeError``.
    """

    def __init__(
        self,
        message: str,
        *,
        figure: Optional[str] = None,
        label: Optional[str] = None,
        error_type: Optional[str] = None,
        sim_time: Optional[float] = None,
        component: Optional[str] = None,
    ):
        super().__init__(message)
        self.figure = figure
        self.label = label
        self.error_type = error_type
        self.sim_time = sim_time
        self.component = component


class JournalError(ReproError):
    """The result journal file is unusable (bad magic, wrong schema).

    A *torn final record* — the expected outcome of a crash mid-append —
    is **not** an error: readers tolerate it and report the intact prefix.
    This exception covers files that are not journals at all or were
    written by an incompatible schema.
    """
