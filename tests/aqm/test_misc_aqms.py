"""Unit tests for the fixed-probability oracles and the AQM counters."""

import random

import pytest

from repro.aqm.base import AQM, Decision
from repro.aqm.fixed import DeterministicMarker, FixedProbabilityAqm
from repro.net.packet import ECN
from repro.net.queue import AQMQueue
from repro.obs.metrics import MetricsRegistry
from tests.conftest import make_packet


class TestFixedProbability:
    def test_rate_matches_p(self):
        aqm = FixedProbabilityAqm(0.2, rng=random.Random(1))
        n = 20_000
        hits = sum(aqm.on_enqueue(make_packet()) is Decision.DROP for _ in range(n))
        assert hits / n == pytest.approx(0.2, rel=0.05)

    def test_marks_ecn(self):
        aqm = FixedProbabilityAqm(1.0, rng=random.Random(1))
        assert aqm.on_enqueue(make_packet(ecn=ECN.ECT0)) is Decision.MARK

    def test_zero_p_passes(self):
        aqm = FixedProbabilityAqm(0.0, rng=random.Random(1))
        assert all(
            aqm.on_enqueue(make_packet()) is Decision.PASS for _ in range(100)
        )

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            FixedProbabilityAqm(1.5)


class TestDeterministicMarker:
    def test_marks_every_nth(self):
        aqm = DeterministicMarker(0.1)
        decisions = [aqm.on_enqueue(make_packet(flow_id=1)) for _ in range(30)]
        marks = [i for i, d in enumerate(decisions) if d is not Decision.PASS]
        assert marks == [9, 19, 29]

    def test_per_flow_counters(self):
        aqm = DeterministicMarker(0.5)
        a = [aqm.on_enqueue(make_packet(flow_id=1)) for _ in range(4)]
        b = [aqm.on_enqueue(make_packet(flow_id=2)) for _ in range(4)]
        assert a == b

    def test_probability_property(self):
        assert DeterministicMarker(0.125).probability == pytest.approx(0.125)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            DeterministicMarker(0.0)


class Scripted(AQM):
    """Returns a fixed sequence of verdicts, one per arrival."""

    def __init__(self, decisions):
        super().__init__()
        self._decisions = iter(decisions)

    def on_enqueue(self, packet):
        return next(self._decisions)


class TestAqmStats:
    """The ``aqm.*`` verdict counters, which the AQM derives from the
    counts its queue keeps."""

    @staticmethod
    def _queue(sim, aqm, **kwargs):
        registry = MetricsRegistry()
        aqm.register_metrics(registry)
        return AQMQueue(sim, aqm, capacity_bps=10e6, **kwargs), registry

    def test_counters(self, sim):
        aqm = Scripted([Decision.PASS, Decision.MARK, Decision.DROP])
        queue, registry = self._queue(sim, aqm)
        accepted = [queue.enqueue(make_packet(ecn=ECN.ECT0)) for _ in range(3)]
        assert accepted == [True, True, False]
        t = registry.snapshot()
        assert (t["aqm.passed"], t["aqm.marked"], t["aqm.dropped"]) == (1, 1, 1)
        assert t["aqm.decisions"] == 3
        assert t["aqm.signal_fraction"] == pytest.approx(2 / 3)

    def test_empty_signal_fraction(self, sim):
        _, registry = self._queue(sim, Scripted([]))
        t = registry.snapshot()
        assert t["aqm.decisions"] == 0
        assert t["aqm.signal_fraction"] == 0.0

    def test_unattached_aqm_reads_no_verdicts(self):
        registry = MetricsRegistry()
        Scripted([]).register_metrics(registry)
        t = registry.snapshot()
        assert (t["aqm.decisions"], t["aqm.passed"]) == (0, 0)
        assert t["aqm.signal_fraction"] == 0.0

    def test_tail_and_fault_drops_are_not_decisions(self, sim):
        # Neither a fault-gated arrival nor one over the buffer limit
        # reaches on_enqueue, so neither is an AQM decision.
        aqm = Scripted([Decision.PASS, Decision.MARK, Decision.DROP])
        queue, registry = self._queue(sim, aqm, buffer_packets=2)
        queue.set_ingress_fault(lambda packet: packet.flow_id == 9)
        flows = [0, 9, 0, 9, 0, 0]  # flow 9 is fault-dropped
        accepted = [queue.enqueue(make_packet(flow_id=f, ecn=ECN.ECT0)) for f in flows]
        # PASS, fault, MARK, fault, then two tail drops (2 queued).
        assert accepted == [True, False, True, False, False, False]
        assert (queue.stats.fault_dropped, queue.stats.tail_dropped) == (2, 2)
        t = registry.snapshot()
        assert t["aqm.decisions"] == 2
        assert (t["aqm.passed"], t["aqm.marked"], t["aqm.dropped"]) == (1, 1, 0)
        assert t["aqm.signal_fraction"] == pytest.approx(1 / 2)
