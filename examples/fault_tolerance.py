#!/usr/bin/env python3
"""Fault tolerance: sweeps that survive broken cells.

A coexistence sweep in which one cell's AQM is sabotaged to diverge (its
controller update returns NaN).  With ``on_error="capture"`` the sweep
retries the cell on a bumped seed, records a structured failure with the
virtual time of the divergence, and still completes every other cell — a
25-cell overnight sweep no longer dies at cell 23.

Run:  python examples/fault_tolerance.py
"""

import random

from repro.aqm.pi import PiAqm
from repro.harness import run_coexistence_grid


def divergent_pi_factory():
    """A PI factory whose first build is sabotaged: its controller sees a
    NaN delay on every update, so the run diverges deterministically."""
    built = {"n": 0}

    def make(rng: random.Random):
        built["n"] += 1
        aqm = PiAqm(rng=rng)
        if built["n"] <= 2:  # first attempt and its seed-bumped retry
            original = aqm.controller.update

            def poisoned(delay, gain_scale=1.0):
                return original(float("nan"))

            aqm.controller.update = poisoned
        return aqm

    return make


def resilient_sweep():
    print("\n=== resilient sweep with one sabotaged cell ===")
    outcome = run_coexistence_grid(
        divergent_pi_factory(),
        links_mbps=[10],
        rtts_ms=[10, 20, 40],
        duration=4.0,
        warmup=1.0,
        on_error="capture",
        max_retries=1,
    )
    print(f"  cells completed: {len(outcome)} of 3")
    print("  " + outcome.failure_report().replace("\n", "\n  "))


def main():
    resilient_sweep()
    print("\nSweeps degrade gracefully: partial results plus a structured "
          "failure report, never a dead overnight run.")


if __name__ == "__main__":
    main()
