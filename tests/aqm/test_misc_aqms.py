"""Unit tests for the fixed-probability oracles and the AQM counters."""

import random

import pytest

from repro.aqm.base import AQM, AQMStats, Decision
from repro.aqm.fixed import DeterministicMarker, FixedProbabilityAqm
from repro.net.packet import ECN
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
    def test_counters(self):
        aqm = Scripted([Decision.PASS, Decision.MARK, Decision.DROP])
        verdicts = [aqm.decide(make_packet(ecn=ECN.ECT0)) for _ in range(3)]
        assert verdicts == [Decision.PASS, Decision.MARK, Decision.DROP]
        stats = aqm.stats
        assert (stats.passed, stats.marked, stats.dropped) == (1, 1, 1)
        assert stats.decisions == 3
        assert stats.signal_fraction == pytest.approx(2 / 3)

    def test_empty_signal_fraction(self):
        assert AQMStats().signal_fraction == 0.0
