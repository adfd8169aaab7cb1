"""Export experiment results to JSON / CSV artifacts.

Reproduction runs are only useful if their outputs can leave the process:
this module serializes an :class:`~repro.harness.experiment.ExperimentResult`
(summary + sampled series) to JSON (``repro run --json PATH``), so results
can be archived, diffed across code versions, or plotted with external
tooling.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import ExperimentResult

__all__ = ["result_summary", "write_result_json"]


def _clean(value: float) -> Optional[float]:
    """JSON has no NaN/Inf; map them to None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def result_summary(result: "ExperimentResult") -> Dict:
    """A JSON-ready dictionary of an experiment's headline numbers."""
    exp = result.experiment
    summary = {
        "config": {
            "capacity_bps": exp.capacity_bps,
            "duration_s": exp.duration,
            "warmup_s": exp.warmup,
            "seed": exp.seed,
            "buffer_packets": exp.buffer_packets,
            "flows": [
                {
                    "cc": g.cc,
                    "count": g.count,
                    "rtt_s": g.rtt,
                    "label": g.label or g.cc,
                    "sack": g.sack,
                }
                for g in exp.flows
            ],
            "udp": [
                {"rate_bps": g.rate_bps, "count": g.count} for g in exp.udp
            ],
        },
        "queue_delay": {
            k: _clean(v) for k, v in result.sojourn_summary().items()
        },
        "utilization": {
            k: _clean(v) for k, v in result.utilization_summary().items()
        },
        "goodput_bps": {
            label: [_clean(r) for r in result.goodputs(label)]
            for label in result.class_labels()
        },
        "queue_counters": {
            "arrived": result.queue_stats.arrived,
            "dequeued": result.queue_stats.dequeued,
            "aqm_dropped": result.queue_stats.aqm_dropped,
            "tail_dropped": result.queue_stats.tail_dropped,
            "ce_marked": result.queue_stats.ce_marked,
        },
    }
    if result.aqm is not None:
        summary["aqm"] = {
            "type": type(result.aqm).__name__,
            "final_probability": _clean(result.aqm.probability),
            "final_raw_probability": _clean(result.aqm.raw_probability),
        }
    return summary


def write_result_json(result: "ExperimentResult", path: Union[str, Path]) -> Path:
    """Serialize the result summary to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(result_summary(result), indent=2) + "\n")
    return path
