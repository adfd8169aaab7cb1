"""Unit tests for the PI controller core and the plain PI AQM."""

import random

import pytest

from repro.aqm.base import Decision
from repro.aqm.pi import PIController, PiAqm
from repro.net.packet import ECN
from tests.conftest import StubQueue, make_packet


class TestPIController:
    def test_equation_four_single_step(self):
        # p += α(τ−τ0) + β(τ−τ_prev)
        ctl = PIController(alpha=0.125, beta=1.25, target=0.020)
        p = ctl.update(0.030)  # error +10 ms, change +30 ms from 0
        assert p == pytest.approx(0.125 * 0.010 + 1.25 * 0.030)

    def test_integrates_across_updates(self):
        ctl = PIController(alpha=0.1, beta=1.0, target=0.020)
        ctl.update(0.030)
        p1 = ctl.p
        p2 = ctl.update(0.030)  # same delay: only the α term adds
        assert p2 == pytest.approx(p1 + 0.1 * 0.010)

    def test_negative_error_decreases(self):
        ctl = PIController(alpha=0.1, beta=1.0, target=0.020)
        ctl.p = 0.5
        ctl.prev_delay = 0.010
        ctl.update(0.010)  # below target, no change term
        assert ctl.p < 0.5

    def test_clamped_at_zero(self):
        ctl = PIController(alpha=0.1, beta=1.0, target=0.020)
        ctl.update(0.0)
        assert ctl.p == 0.0

    def test_clamped_at_p_max(self):
        ctl = PIController(alpha=10.0, beta=100.0, target=0.001, p_max=0.5)
        for _ in range(100):
            ctl.update(1.0)
        assert ctl.p == 0.5

    def test_gain_scale_multiplies_delta(self):
        a = PIController(alpha=0.1, beta=1.0, target=0.020)
        b = PIController(alpha=0.1, beta=1.0, target=0.020)
        a.update(0.030, gain_scale=1.0)
        b.update(0.030, gain_scale=0.5)
        assert b.p == pytest.approx(a.p / 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0, "beta": 1, "target": 0.02},
            {"alpha": 0.1, "beta": -1, "target": 0.02},
            {"alpha": 0.1, "beta": 1, "target": 0},
            {"alpha": 0.1, "beta": 1, "target": 0.02, "p_max": 0},
            {"alpha": 0.1, "beta": 1, "target": 0.02, "p_max": 1.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PIController(**kwargs)


class TestPiAqm:
    def test_update_timer_runs(self, sim):
        aqm = PiAqm(rng=random.Random(1))
        queue = StubQueue(delay=0.050)
        aqm.attach(sim, queue)
        sim.run(1.0)
        assert aqm.probability > 0.0

    def test_zero_probability_passes_everything(self, sim, rng):
        aqm = PiAqm(rng=rng)
        aqm.attach(sim, StubQueue(delay=0.0))
        assert all(
            aqm.on_enqueue(make_packet()) is Decision.PASS for _ in range(100)
        )

    def test_drops_not_ect_marks_ect(self, rng):
        aqm = PiAqm(rng=rng)
        aqm.controller.p = 1.0
        assert aqm.on_enqueue(make_packet(ecn=ECN.NOT_ECT)) is Decision.DROP
        assert aqm.on_enqueue(make_packet(ecn=ECN.ECT0)) is Decision.MARK

    @pytest.mark.parametrize("ecn", list(ECN), ids=lambda c: c.name)
    def test_signal_follows_ecn_capable(self, rng, ecn):
        # on_enqueue tests the codepoint inline; it must mark exactly the
        # packets Packet.ecn_capable calls ECN-capable.  At p = 1 every
        # packet is signalled.
        aqm = PiAqm(rng=rng)
        aqm.controller.p = 1.0
        pkt = make_packet(ecn=ecn)
        expected = Decision.MARK if pkt.ecn_capable else Decision.DROP
        assert aqm.on_enqueue(pkt) is expected

    def test_ecn_disabled_drops_ect(self, rng):
        aqm = PiAqm(ecn=False, rng=rng)
        aqm.controller.p = 1.0
        assert aqm.on_enqueue(make_packet(ecn=ECN.ECT0)) is Decision.DROP

    def test_signal_rate_matches_probability(self, rng):
        aqm = PiAqm(rng=rng)
        aqm.controller.p = 0.3
        n = 20_000
        signals = sum(
            aqm.on_enqueue(make_packet()) is Decision.DROP for _ in range(n)
        )
        assert signals / n == pytest.approx(0.3, rel=0.05)
