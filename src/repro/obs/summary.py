"""Offline analysis of a JSONL trace (``repro trace summarize``).

Reconstructs what the tracer observed: per-category/per-type event
counts, the AQM control loop's ``p'``/queue-delay time-series and its
convergence time, and harness span durations.  Everything here reads
the trace file only — it can run long after the simulation, on another
machine, against a trace produced by any :class:`~repro.obs.trace.Tracer`
implementation that follows the schema.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.trace import CATEGORIES, TRACE_SCHEMA_VERSION

__all__ = ["read_trace", "summarize_trace", "format_trace_summary"]


def read_trace(
    path: Union[str, Path],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse a JSONL trace into ``(header, events)``.

    Raises ``ValueError`` on an empty file, a missing/alien header, or
    a schema version this reader does not understand.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != "repro-trace":
        raise ValueError(f"{path}: not a repro trace (missing header line)")
    if header.get("schema") != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: trace schema {header.get('schema')!r} not supported "
            f"(this reader understands {TRACE_SCHEMA_VERSION})"
        )
    events = [json.loads(line) for line in lines[1:] if line.strip()]
    return header, events


def _convergence_time(
    times: List[float], values: List[float]
) -> Tuple[Optional[float], Optional[float]]:
    """``(convergence_time, final_value)`` of a control-signal series.

    ``final_value`` is the median of the last quarter of the samples;
    the loop is converged from the first time after which *every*
    subsequent sample stays within ``max(10% of final, 0.01)`` of it.
    Returns ``(None, final)`` when the series never settles and
    ``(None, None)`` when there are too few samples to judge.
    """
    if len(values) < 8:
        return None, None
    tail = sorted(values[-max(2, len(values) // 4):])
    mid = len(tail) // 2
    final = tail[mid] if len(tail) % 2 else 0.5 * (tail[mid - 1] + tail[mid])
    band = max(0.1 * abs(final), 0.01)
    converged_at: Optional[float] = None
    for t, value in zip(times, values):
        if abs(value - final) <= band:
            if converged_at is None:
                converged_at = t
        else:
            converged_at = None
    return converged_at, final


def summarize_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Aggregate one trace file into a JSON-able summary dict.

    Keys: ``schema``, ``events`` (total), ``categories`` (per-category
    counts), ``event_types`` (per-type counts), ``aqm`` (update and
    verdict counts, ``p'``/delay series and convergence diagnostics;
    None when no AQM events were recorded, and the update-derived
    values None when only decisions were), ``engine`` (epoch count and
    final lane stats; None likewise), and ``spans`` (per harness span
    type: count and wall-clock duration stats where emitted).
    """
    header, events = read_trace(path)
    categories = {c: 0 for c in CATEGORIES}
    event_types: Dict[str, int] = {}
    for event in events:
        cat = event.get("cat", "?")
        categories[cat] = categories.get(cat, 0) + 1
        name = event.get("event", "?")
        event_types[name] = event_types.get(name, 0) + 1

    updates = [e for e in events if e.get("event") == "aqm_update"]
    decisions = [e for e in events if e.get("event") == "aqm_decision"]
    aqm_summary: Optional[Dict[str, Any]] = None
    if updates or decisions:
        # AQMs without an update timer (RED) emit decisions only: their
        # series is empty and every update-derived value is None.
        times = [float(e["t"]) for e in updates]
        p_prime = [float(e.get("p_prime") or 0.0) for e in updates]
        delays = [float(e.get("delay") or 0.0) for e in updates]
        converged_at, final_p = _convergence_time(times, p_prime)
        verdicts: Dict[str, int] = {}
        for decision in decisions:
            verdict = str(decision.get("verdict", "?"))
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
        aqm_summary = {
            "aqm": (updates or decisions)[0].get("aqm"),
            "updates": len(updates),
            "decisions": dict(sorted(verdicts.items())),
            "first_t": times[0] if times else None,
            "last_t": times[-1] if times else None,
            "final_p_prime": final_p,
            "convergence_time": converged_at,
            "mean_delay": sum(delays) / len(delays) if delays else None,
            "max_delay": max(delays) if delays else None,
            "series": {"t": times, "p_prime": p_prime, "delay": delays},
        }

    epochs = [e for e in events if e.get("event") == "engine_epoch"]
    engine_summary: Optional[Dict[str, Any]] = None
    if epochs:
        last = epochs[-1]
        engine_summary = {
            "epochs": len(epochs),
            "last_t": float(last["t"]),
            "events_processed": last.get("events_processed"),
            "max_heap": max(int(e.get("heap") or 0) for e in epochs),
        }
        # Traces recorded before the engine became one heap also carry
        # a stream lane and batching counters; keep reporting them.
        if "events_batched" in last:
            engine_summary["events_batched"] = last["events_batched"]
            engine_summary["batch_breaks"] = last.get("batch_breaks")
        if any("stream" in e for e in epochs):
            engine_summary["max_stream"] = max(
                int(e.get("stream") or 0) for e in epochs
            )

    spans: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("cat") != "harness":
            continue
        name = str(event.get("event", "?"))
        entry = spans.setdefault(
            name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
        )
        entry["count"] += 1
        seconds = event.get("seconds")
        if isinstance(seconds, (int, float)):
            entry["total_seconds"] += seconds
            entry["max_seconds"] = max(entry["max_seconds"], seconds)

    return {
        "schema": header.get("schema"),
        "events": len(events),
        "categories": dict(sorted(categories.items())),
        "event_types": dict(sorted(event_types.items())),
        "aqm": aqm_summary,
        "engine": engine_summary,
        "spans": dict(sorted(spans.items())),
    }


def _sampled_rows(series: Dict[str, List[float]], max_rows: int) -> List[Tuple[float, float, float]]:
    """Evenly sample the (t, p', delay) series down to ``max_rows``."""
    times = series["t"]
    count = len(times)
    if count <= max_rows:
        indices = list(range(count))
    else:
        step = (count - 1) / (max_rows - 1)
        indices = sorted({round(i * step) for i in range(max_rows)})
    return [
        (times[i], series["p_prime"][i], series["delay"][i]) for i in indices
    ]


def format_trace_summary(summary: Dict[str, Any], max_rows: int = 12) -> str:
    """Render :func:`summarize_trace` output as a terminal report."""
    lines = [
        f"trace schema {summary['schema']} — {summary['events']} events",
        "",
        "events by category:",
    ]
    for cat, count in summary["categories"].items():
        lines.append(f"  {cat:8s} {count}")
    lines.append("events by type:")
    for name, count in summary["event_types"].items():
        lines.append(f"  {name:16s} {count}")

    aqm = summary.get("aqm")
    if aqm is not None:
        lines.append("")
        span = (
            f" over t=[{aqm['first_t']:.3f}, {aqm['last_t']:.3f}]s"
            if aqm["updates"]
            else ""
        )
        lines.append(
            f"control loop ({aqm['aqm']}): {aqm['updates']} updates{span}"
        )
        if aqm["decisions"]:
            verdicts = ", ".join(
                f"{name}={count}" for name, count in aqm["decisions"].items()
            )
            lines.append(f"  decisions: {verdicts}")
    if aqm is not None and aqm["updates"]:
        lines.append(
            f"  mean queue delay {aqm['mean_delay'] * 1e3:.2f} ms, "
            f"max {aqm['max_delay'] * 1e3:.2f} ms"
        )
        if aqm["final_p_prime"] is not None:
            settled = (
                f"converged at t={aqm['convergence_time']:.3f}s"
                if aqm["convergence_time"] is not None
                else "did not converge"
            )
            lines.append(
                f"  final p' = {aqm['final_p_prime']:.6f} ({settled})"
            )
        lines.append("  t [s]      p'          delay [ms]")
        for t, p_prime, delay in _sampled_rows(aqm["series"], max_rows):
            lines.append(f"  {t:8.3f}  {p_prime:.6f}    {delay * 1e3:9.3f}")

    engine = summary.get("engine")
    if engine is not None:
        lines.append("")
        header = (
            f"engine: {engine['epochs']} epochs to t={engine['last_t']:.3f}s, "
            f"{engine['events_processed']} events processed"
        )
        if "events_batched" in engine:
            header += (
                f", {engine['events_batched']} batched "
                f"({engine['batch_breaks']} batch breaks)"
            )
        lines.append(header)
        peaks = f"  lane peaks: heap={engine['max_heap']}"
        if "max_stream" in engine:
            peaks += f" stream={engine['max_stream']}"
        lines.append(peaks)

    spans = summary.get("spans") or {}
    if spans:
        lines.append("")
        lines.append("harness spans:")
        for name, entry in spans.items():
            duration = (
                f" total {entry['total_seconds']:.3f}s"
                f" max {entry['max_seconds']:.3f}s"
                if entry["total_seconds"]
                else ""
            )
            lines.append(f"  {name:16s} {entry['count']}{duration}")
    return "\n".join(lines)
