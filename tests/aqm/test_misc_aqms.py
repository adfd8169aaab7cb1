"""Unit tests for Curvy RED, tail-drop and the fixed-probability oracles."""

import random

import pytest

from repro.aqm.base import AQM, AQMStats, Decision
from repro.aqm.curvy_red import CurvyRedAqm
from repro.aqm.fixed import DeterministicMarker, FixedProbabilityAqm
from repro.aqm.taildrop import TailDropAqm
from repro.net.packet import ECN
from tests.conftest import StubQueue, make_packet


class TestCurvyRed:
    def make(self, delay, **kwargs):
        kwargs.setdefault("rng", random.Random(1))
        aqm = CurvyRedAqm(**kwargs)
        aqm.queue = StubQueue(delay=delay)
        return aqm

    def test_empty_queue_no_signal(self):
        aqm = self.make(0.0)
        assert all(
            aqm.on_enqueue(make_packet(ecn=ECN.ECT1)) is Decision.PASS
            for _ in range(100)
        )

    def test_scalable_ramp_linear(self):
        aqm = self.make(0.020, range_delay=0.040)
        assert aqm.probability == pytest.approx(0.5)

    def test_classic_probability_is_squared_half(self):
        aqm = self.make(0.020, range_delay=0.040)
        assert aqm.classic_probability == pytest.approx(0.0625)

    def test_scalable_marked_classic_mostly_passed(self):
        aqm = self.make(0.020, range_delay=0.040)
        n = 4000
        scal = sum(
            aqm.on_enqueue(make_packet(ecn=ECN.ECT1)) is Decision.MARK
            for _ in range(n)
        )
        classic = sum(
            aqm.on_enqueue(make_packet()) is Decision.DROP for _ in range(n)
        )
        assert scal / n == pytest.approx(0.5, rel=0.1)
        assert classic / n == pytest.approx(0.0625, rel=0.25)

    def test_classic_ect0_marked_not_dropped(self):
        aqm = self.make(0.045, range_delay=0.040)
        decisions = {
            aqm.on_enqueue(make_packet(ecn=ECN.ECT0)) for _ in range(300)
        }
        assert Decision.MARK in decisions
        assert Decision.DROP not in decisions

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CurvyRedAqm(range_delay=0)
        with pytest.raises(ValueError):
            CurvyRedAqm(k_curvy=0)


class TestTailDrop:
    def test_passes_under_limit(self):
        aqm = TailDropAqm(limit_packets=5)
        aqm.queue = StubQueue(packets=4)
        assert aqm.on_enqueue(make_packet()) is Decision.PASS

    def test_drops_at_limit(self):
        aqm = TailDropAqm(limit_packets=5)
        aqm.queue = StubQueue(packets=5)
        assert aqm.on_enqueue(make_packet()) is Decision.DROP

    def test_unlimited_never_drops(self):
        aqm = TailDropAqm()
        aqm.queue = StubQueue(packets=10**6)
        assert aqm.on_enqueue(make_packet()) is Decision.PASS

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            TailDropAqm(limit_packets=0)


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
