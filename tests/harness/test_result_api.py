"""Tests for the ExperimentResult read-out API and scenario constants."""

import math

import pytest

from repro.harness.claims import CLAIMS
from repro.harness.experiment import Experiment, FlowGroup, UdpGroup, run_experiment
from repro.harness.factories import pi2_factory
from repro.harness.scenarios import MBPS


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        Experiment(
            capacity_bps=10 * MBPS,
            duration=12.0,
            warmup=4.0,
            aqm_factory=pi2_factory(),
            flows=[
                FlowGroup(cc="reno", count=2, rtt=0.02, label="a"),
                FlowGroup(cc="cubic", count=1, rtt=0.02, label="b"),
            ],
            udp=[UdpGroup(rate_bps=1 * MBPS)],
        )
    )


class TestReadOuts:
    def test_class_labels_sorted(self, result):
        assert result.class_labels() == ["a", "b", "udp"]

    def test_goodputs_per_class(self, result):
        assert len(result.goodputs("a")) == 2
        assert len(result.goodputs("b")) == 1

    def test_total_goodput_close_to_capacity(self, result):
        # TCP goodput + the 1 Mb/s UDP group's nominal rate ≈ link rate.
        tcp = sum(result.goodputs("a")) + sum(result.goodputs("b"))
        assert 6 * MBPS < tcp < 10 * MBPS

    def test_balance_defined(self, result):
        ratio = result.balance("a", "b")
        assert ratio > 0 and math.isfinite(ratio)

    def test_probability_summary_keys(self, result):
        s = result.probability_summary(percentiles=(25, 99))
        assert set(s) == {"mean", "p25", "p99"}
        assert 0 <= s["mean"] <= 1

    def test_utilization_summary(self, result):
        s = result.utilization_summary()
        assert s["p1"] <= s["mean"] <= s["p99"] + 1e-9

    def test_sojourn_samples_warmup_filter(self, result):
        all_samples = result.sojourn_samples(from_warmup=False)
        tail = result.sojourn_samples(from_warmup=True)
        assert len(tail) < len(all_samples)

    def test_queue_stats_exposed(self, result):
        assert result.queue_stats.arrived > 0

    def test_raw_probability_series(self, result):
        # For PI2 raw (p') ≥ applied (p'²) pointwise.
        raw = result.raw_probability.values
        applied = result.probability.values
        assert all(r >= a - 1e-12 for r, a in zip(raw, applied))


class TestPaperExpectations:
    """The paper's reference values live on the claims."""

    def test_keys_present(self):
        paper = {claim.id: claim.paper_value for claim in CLAIMS}
        for key in (
            "fig11c.pi2_overload_equilibrium",
            "fig15.pie_starves_cubic",
            "fig15.pi2_balance",
            "fig18.pi2_utilization",
        ):
            assert paper[key] is not None

    def test_values_sane(self):
        paper = {claim.id: claim.paper_value for claim in CLAIMS}
        assert paper["fig11c.pi2_overload_equilibrium"] == 20.0  # target [ms]
        assert paper["fig15.pie_starves_cubic"] < 1
        assert paper["fig15.pi2_balance"] == 1.0
        assert paper["fig18.pi2_utilization"] == 0.9
