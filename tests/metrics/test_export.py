"""Tests for JSON result export."""

import json

import pytest

from repro.harness.experiment import Experiment, FlowGroup, run_experiment
from repro.harness.factories import pi2_factory
from repro.metrics.export import result_summary, write_result_json


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        Experiment(
            capacity_bps=10e6,
            duration=8.0,
            warmup=2.0,
            aqm_factory=pi2_factory(),
            flows=[FlowGroup(cc="reno", count=2, rtt=0.02, label="reno")],
        )
    )


class TestSummary:
    def test_config_round_trips(self, result):
        summary = result_summary(result)
        assert summary["config"]["capacity_bps"] == 10e6
        assert summary["config"]["flows"][0]["cc"] == "reno"
        assert summary["config"]["flows"][0]["count"] == 2

    def test_metrics_present(self, result):
        summary = result_summary(result)
        assert summary["queue_delay"]["mean"] > 0
        assert 0 < summary["utilization"]["mean"] <= 1.01
        assert len(summary["goodput_bps"]["reno"]) == 2
        assert summary["aqm"]["type"] == "Pi2Aqm"

    def test_json_serializable(self, result):
        text = json.dumps(result_summary(result))
        assert "NaN" not in text

    def test_counters(self, result):
        summary = result_summary(result)
        counters = summary["queue_counters"]
        assert counters["arrived"] >= counters["dequeued"]


class TestFiles:
    def test_write_json(self, result, tmp_path):
        path = write_result_json(result, tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert loaded["config"]["seed"] == 1
