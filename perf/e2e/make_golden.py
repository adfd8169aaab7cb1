"""Regenerate ``golden.json``, the outputs every benchmark run is checked against.

    PYTHONPATH=src python perf/e2e/make_golden.py

Per-cell ``digest_hex()`` values for seeds 1 and 2 of every simulation
workload, and a sha256 of each figure's rows for ``figures_jobs2``.  The
reference runs take the plainest path: serial, untraced, no cache and no
journal.  So a traced, parallel, cached or journaled run that matches
them also shows those features leave results bit-exact.  Regenerate only
when a change is meant to alter results.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads
from child import rows_sha256
from repro.harness import run_experiment
from repro.harness.figures import generate_figure

SEEDS = (1, 2)


def main() -> None:
    golden = {"seeds": {}, "figures_jobs2": {}}
    for seed in SEEDS:
        golden["seeds"][str(seed)] = {
            name: {label: run_experiment(exp).digest_hex()
                   for label, exp in build(seed)}
            for name, build in workloads.SIMULATIONS.items()
        }
    for figure, scale in workloads.FIGURES:
        rows = generate_figure(figure, scale=scale).rows
        golden["figures_jobs2"][figure] = rows_sha256(rows)
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
