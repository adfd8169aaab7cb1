"""Unit tests for the coupled PI+PI2 single-queue AQM (Figure 9)."""

import random

import pytest

from repro.aqm.base import Decision
from repro.core.coupled import (
    DEFAULT_ALPHA_COUPLED,
    DEFAULT_BETA_COUPLED,
    CoupledPi2Aqm,
)
from repro.net.packet import ECN
from tests.conftest import StubQueue, make_packet


def coupled(**kwargs):
    kwargs.setdefault("rng", random.Random(1))
    return CoupledPi2Aqm(**kwargs)


class TestDefaults:
    def test_table1_scalable_gains(self):
        aqm = coupled()
        assert aqm.controller.alpha == pytest.approx(10 / 16)
        assert aqm.controller.beta == pytest.approx(100 / 16)
        assert DEFAULT_ALPHA_COUPLED == pytest.approx(0.625)
        assert DEFAULT_BETA_COUPLED == pytest.approx(6.25)

    def test_gains_are_2x_classic_pi2(self):
        from repro.core.pi2 import DEFAULT_ALPHA_PI2, DEFAULT_BETA_PI2

        assert DEFAULT_ALPHA_COUPLED == pytest.approx(2 * DEFAULT_ALPHA_PI2)
        assert DEFAULT_BETA_COUPLED == pytest.approx(2 * DEFAULT_BETA_PI2)

    def test_k_defaults_to_two(self):
        assert coupled().k == 2.0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            CoupledPi2Aqm(k=0)


class TestPerClassDecisions:
    def test_scalable_marked_at_ps(self):
        aqm = coupled()
        aqm.controller.p = 0.4
        n = 30_000
        marks = sum(
            aqm.on_enqueue(make_packet(ecn=ECN.ECT1)) is Decision.MARK
            for _ in range(n)
        )
        assert marks / n == pytest.approx(0.4, rel=0.05)

    def test_classic_signalled_at_ps_over_k_squared(self):
        aqm = coupled(k=2.0)
        aqm.controller.p = 0.4
        n = 60_000
        drops = sum(
            aqm.on_enqueue(make_packet(ecn=ECN.NOT_ECT)) is Decision.DROP
            for _ in range(n)
        )
        assert drops / n == pytest.approx(0.04, rel=0.10)

    def test_equation14_relation_between_classes(self):
        aqm = coupled(k=2.0)
        aqm.controller.p = 0.6
        assert aqm.classic_probability == pytest.approx((0.6 / 2) ** 2)
        assert aqm.probability == pytest.approx(0.6)

    def test_classic_ect0_marked_not_dropped(self):
        aqm = coupled()
        aqm.controller.p = 1.0
        got = {aqm.on_enqueue(make_packet(ecn=ECN.ECT0)) for _ in range(300)}
        assert Decision.MARK in got
        assert Decision.DROP not in got

    def test_ce_packet_takes_scalable_branch(self):
        aqm = coupled()
        aqm.controller.p = 1.0
        pkt = make_packet(ecn=ECN.ECT1)
        pkt.mark_ce()
        # Already-CE scalable packet: re-marking is a harmless MARK.
        assert aqm.on_enqueue(pkt) is Decision.MARK
        assert aqm.scalable_seen == 1

    def test_per_class_counters(self):
        aqm = coupled()
        aqm.controller.p = 1.0
        aqm.on_enqueue(make_packet(ecn=ECN.ECT1))
        aqm.on_enqueue(make_packet(ecn=ECN.NOT_ECT))
        assert aqm.scalable_seen == 1
        assert aqm.classic_seen == 1

    @pytest.mark.parametrize("ect", list(ECN), ids=lambda c: f"ect={c.name}")
    @pytest.mark.parametrize("ecn", list(ECN), ids=lambda c: f"ecn={c.name}")
    def test_branch_and_verdict_follow_the_packet_properties(self, ecn, ect):
        # on_enqueue tests the codepoints inline; it must classify exactly
        # as Packet.is_scalable and signal exactly as Packet.ecn_capable.
        # k = 0.5 lifts ps / k above 1, so every Classic packet is signalled.
        aqm = coupled(k=0.5)
        aqm.controller.p = 1.0
        pkt = make_packet(ecn=ecn, ect=ect)
        decision = aqm.on_enqueue(pkt)
        assert (aqm.scalable_seen, aqm.classic_seen) == (
            (1, 0) if pkt.is_scalable else (0, 1)
        )
        if pkt.is_scalable or pkt.ecn_capable:
            assert decision is Decision.MARK
        else:
            assert decision is Decision.DROP


class TestOverloadLimits:
    def test_classic_capped_at_25_percent(self, sim):
        """ps saturates at 1 → pc = (1/2)² = 25 %, Section 5's cap."""
        aqm = coupled()
        aqm.attach(sim, StubQueue(delay=1.0))
        sim.run(5.0)
        assert aqm.probability == pytest.approx(1.0)
        assert aqm.classic_probability == pytest.approx(0.25)

    def test_think_once_vs_think_twice(self):
        """At any ps the scalable signal rate exceeds the classic one."""
        for ps in (0.1, 0.5, 1.0):
            aqm = coupled()
            aqm.controller.p = ps
            assert aqm.classic_probability < aqm.probability


class TestControlLoop:
    def test_controls_toward_target(self, sim):
        aqm = coupled()
        queue = StubQueue(delay=0.040)
        aqm.attach(sim, queue)
        sim.run(1.0)
        assert aqm.probability > 0.0

    def test_relaxes_when_under_target(self, sim):
        aqm = coupled()
        queue = StubQueue(delay=0.040)
        aqm.attach(sim, queue)
        sim.run(1.0)
        p_high = aqm.probability
        queue.delay = 0.001
        sim.run(3.0)
        assert aqm.probability < p_high
