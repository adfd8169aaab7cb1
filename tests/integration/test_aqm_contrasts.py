"""Integration tests for the single queue's classlessness.

The AQMs are classless: flows with different RTTs share one queue, and
the usual TCP RTT-bias (throughput ∝ 1/RTT) persists through any AQM —
a sanity check that the AQM isn't accidentally scheduling.  (Section 3's
lineage statements — RED's queue grows with load, the PI family holds
its target, PIE's measured departure rate controls like the exact one —
are the ``lineage.*`` claims of :mod:`repro.harness.claims`.)
"""


import pytest

from repro.harness import MBPS, pi2_factory, pie_factory, run_experiment
from repro.harness.experiment import Experiment, FlowGroup


class TestRttHeterogeneity:
    def test_short_rtt_flows_win_under_any_aqm(self):
        """The classic RTT bias persists — the single queue is FIFO, not
        a scheduler — but both classes make progress."""
        for factory in (pie_factory(), pi2_factory()):
            r = run_experiment(
                Experiment(
                    capacity_bps=10 * MBPS,
                    duration=30.0,
                    warmup=10.0,
                    aqm_factory=factory,
                    flows=[
                        FlowGroup(cc="reno", count=3, rtt=0.020, label="short"),
                        FlowGroup(cc="reno", count=3, rtt=0.120, label="long"),
                    ],
                )
            )
            short = sum(r.goodputs("short"))
            long_ = sum(r.goodputs("long"))
            assert short > long_
            assert long_ > 0.3 * MBPS

    def test_mixed_rtt_queue_still_on_target(self):
        r = run_experiment(
            Experiment(
                capacity_bps=10 * MBPS,
                duration=30.0,
                warmup=10.0,
                aqm_factory=pi2_factory(),
                flows=[
                    FlowGroup(cc="reno", count=3, rtt=0.020, label="short"),
                    FlowGroup(cc="reno", count=3, rtt=0.120, label="long"),
                ],
            )
        )
        assert r.sojourn_summary()["mean"] == pytest.approx(0.020, abs=0.010)
