"""Tests for the AQM base-class contract."""

import pytest

from repro.aqm.base import AQM, Decision
from repro.core.pi2 import Pi2Aqm
from repro.net.packet import ECN
from repro.net.queue import AQMQueue
from repro.obs.metrics import MetricsRegistry
from tests.conftest import make_packet


class Recording(AQM):
    def __init__(self, decision):
        super().__init__()
        self._decision = decision
        self.updates = 0

    update_interval = 0.1

    def on_enqueue(self, packet):
        return self._decision

    def update(self):
        self.updates += 1


class TestLifecycle:
    def test_attach_starts_timer(self, sim, stub_queue):
        aqm = Recording(Decision.PASS)
        aqm.attach(sim, stub_queue)
        sim.run(1.05)
        assert aqm.updates == 10

    def test_no_timer_when_interval_none(self, sim, stub_queue):
        aqm = AQM()
        aqm.attach(sim, stub_queue)
        sim.run(1.0)  # must not raise; nothing scheduled
        assert sim.events_processed == 0


class TestDecisionRecording:
    @pytest.mark.parametrize(
        "decision,attr",
        [
            (Decision.PASS, "passed"),
            (Decision.MARK, "marked"),
            (Decision.DROP, "dropped"),
        ],
    )
    def test_queue_counts_each_verdict(self, sim, decision, attr):
        aqm = Recording(decision)
        registry = MetricsRegistry()
        aqm.register_metrics(registry)
        queue = AQMQueue(sim, aqm, capacity_bps=10e6)
        for _ in range(4):
            queue.enqueue(make_packet(ecn=ECN.ECT0))
        telemetry = registry.snapshot()
        assert telemetry[f"aqm.{attr}"] == 4
        assert telemetry["aqm.decisions"] == 4

    def test_base_defaults(self):
        aqm = AQM()
        assert aqm.on_enqueue(make_packet()) is Decision.PASS
        assert aqm.probability == 0.0
        assert aqm.raw_probability == 0.0

    def test_raw_probability_defaults_to_probability(self):
        class Fixed(AQM):
            @property
            def probability(self):
                return 0.42

        assert Fixed().raw_probability == 0.42

    def test_pi2_overrides_raw(self):
        aqm = Pi2Aqm()
        aqm.controller.p = 0.3
        assert aqm.raw_probability == pytest.approx(0.3)
        assert aqm.probability == pytest.approx(0.09)
