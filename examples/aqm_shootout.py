#!/usr/bin/env python3
"""AQM shoot-out: tail-drop, RED, PIE, bare-PIE, PI2 on one workload.

The paper's Section 3 traces the lineage RED → PI → PIE → PI2.  This
example runs the whole family on the same scenario — 10 Reno flows,
10 Mb/s, 100 ms RTT — and prints queue delay, utilization, and loss,
showing each generation's trade-off:

* tail-drop: full buffer, huge standing queue (bufferbloat);
* RED: delay grows with load (pushes back with both delay and loss);
* PIE / PI2: delay pinned near their target, PI2 with the simpler
  algorithm.

The ``lineage`` figure (``python -m repro figure lineage``) turns the RED
and PI-family statements into claims.

Run:  python examples/aqm_shootout.py
"""

from repro.aqm.red import RedAqm
from repro.harness import (
    MBPS,
    bare_pie_factory,
    pi2_factory,
    pie_factory,
    run_experiment,
    taildrop_factory,
)
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.sweep import format_table


def red_factory():
    return lambda rng: RedAqm(rng=rng)


CONTENDERS = [
    ("tail-drop", taildrop_factory()),
    ("RED", red_factory()),
    ("PIE", pie_factory()),
    ("bare-PIE", bare_pie_factory()),
    ("PI2", pi2_factory()),
]


def main():
    print("AQM shoot-out: 10 Reno flows, 10 Mb/s, 100 ms RTT, 40 s\n")
    rows = []
    for name, factory in CONTENDERS:
        result = run_experiment(
            Experiment(
                capacity_bps=10 * MBPS,
                duration=40.0,
                warmup=10.0,
                aqm_factory=factory,
                flows=[FlowGroup(cc="reno", count=10, rtt=0.100)],
                buffer_packets=400,  # a reasonable real-router buffer
            )
        )
        delay = result.sojourn_summary(percentiles=(99,))
        rows.append(
            (
                name,
                delay["mean"] * 1e3,
                delay["p99"] * 1e3,
                result.mean_utilization() * 100,
                result.queue_stats.dropped,
                result.queue_stats.ce_marked,
            )
        )
    print(
        format_table(
            ["aqm", "q mean [ms]", "q p99 [ms]", "util [%]", "drops", "marks"],
            rows,
        )
    )
    print("\nNote how the PI family pins the mean near its 20 ms target;")
    print("PI2 does it without PIE's lookup table or corrective heuristics.")


if __name__ == "__main__":
    main()
