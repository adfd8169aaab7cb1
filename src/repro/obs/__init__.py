"""Observability: structured run telemetry with zero overhead when off.

Three pieces (see ``docs/OBSERVABILITY.md`` for the schema reference and
recipes):

* :mod:`repro.obs.trace` — the :class:`Tracer` protocol, the
  :class:`JsonlTracer` sink, and the AQM instrumentation hook
  (:func:`install_aqm_tracer`).  Tracers *observe* the simulation; they
  never schedule events or feed values back into simulation state (the
  ``OBS`` static-analysis rule enforces this), so digests are bit-exact
  with tracing on or off.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, the named
  counter/gauge registry that `Simulator`, AQMs, `Link`, the shared
  result cache and the supervisor report into; its snapshot becomes the
  ``telemetry`` block on :class:`~repro.harness.frozen.FrozenResult`.
* :mod:`repro.obs.summary` — offline analysis of a JSONL trace:
  per-category event counts, control-loop convergence time, harness
  span durations and the ``p'``/queue-delay time-series behind the
  ``repro trace summarize`` subcommand.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import format_trace_summary, read_trace, summarize_trace
from repro.obs.trace import (
    CATEGORIES,
    TRACE_SCHEMA_VERSION,
    JsonlTracer,
    RecordingTracer,
    Tracer,
    engine_tracer,
    install_aqm_tracer,
)

__all__ = [
    "CATEGORIES",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "JsonlTracer",
    "RecordingTracer",
    "engine_tracer",
    "install_aqm_tracer",
    "MetricsRegistry",
    "read_trace",
    "summarize_trace",
    "format_trace_summary",
]
