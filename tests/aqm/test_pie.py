"""Unit tests for PIE and its Section 5 heuristics."""

import random

import pytest

from repro.aqm.base import Decision
from repro.aqm.pie import BarePieAqm, PieAqm
from repro.aqm.tune_table import tune
from repro.net.packet import ECN
from tests.conftest import StubQueue, make_packet


def attached_pie(sim, queue, **kwargs):
    kwargs.setdefault("rng", random.Random(1))
    aqm = PieAqm(**kwargs)
    aqm.attach(sim, queue)
    return aqm


class TestAutoTune:
    def test_delta_scaled_by_tune_table(self, sim):
        queue = StubQueue(delay=0.030)
        tuned = attached_pie(sim, queue, max_burst=0.0)
        fixed = attached_pie(sim, queue, max_burst=0.0, auto_tune=False)
        tuned.update()
        fixed.update()
        # At p = 0 the table divisor is 2048.
        assert tuned.probability == pytest.approx(
            fixed.probability * tune(0.0), rel=1e-9
        )

    def test_auto_tune_off_matches_plain_pi_step(self, sim):
        queue = StubQueue(delay=0.030)
        pie = attached_pie(sim, queue, max_burst=0.0, auto_tune=False,
                           delay_kick_enabled=False, dp_cap_enabled=False)
        pie.update()
        expected = 0.125 * 0.010 + 1.25 * 0.030
        assert pie.probability == pytest.approx(expected)


class TestBurstAllowance:
    def test_no_drops_during_burst_allowance(self, sim):
        pie = attached_pie(sim, StubQueue(delay=0.5, packets=100))
        pie.controller.p = 1.0
        assert pie.on_enqueue(make_packet()) is Decision.PASS

    def test_burst_allowance_decrements_each_update(self, sim):
        pie = attached_pie(sim, StubQueue(delay=0.5, packets=100))
        pie.controller.p = 0.5  # keeps the reset branch inactive
        start = pie.burst_allowance
        pie.update()
        assert pie.burst_allowance == pytest.approx(start - pie.update_interval)

    def test_burst_allowance_resets_when_idle(self, sim):
        pie = attached_pie(sim, StubQueue(delay=0.0))
        pie.burst_allowance = 0.0
        pie.update()  # p == 0, delay < target/2 → reset
        assert pie.burst_allowance == pie.max_burst

    def test_drops_resume_after_burst_spent(self, sim):
        queue = StubQueue(delay=0.5, packets=100)
        pie = attached_pie(sim, queue)
        pie.controller.p = 1.0
        for _ in range(5):  # 5 × 32 ms > 100 ms
            pie.update()
        pie.controller.p = 1.0
        assert pie.on_enqueue(make_packet()) is Decision.DROP


class TestHeuristics:
    def test_drop_early_suppressed_below_20pct_and_half_target(self, sim):
        pie = attached_pie(sim, StubQueue(delay=0.005, packets=100), max_burst=0.0)
        pie.controller.p = 0.19
        pie._qdelay_old = 0.005  # below target/2 = 10 ms
        assert pie.on_enqueue(make_packet()) is Decision.PASS

    def test_drop_early_suppression_can_be_disabled(self, sim):
        pie = attached_pie(
            sim, StubQueue(delay=0.005, packets=100), max_burst=0.0,
            drop_early_suppress=False, rng=random.Random(3),
        )
        pie.controller.p = 1.0
        pie._qdelay_old = 0.005
        assert pie.on_enqueue(make_packet()) is Decision.DROP

    def test_min_backlog_guard(self, sim):
        pie = attached_pie(sim, StubQueue(delay=0.5, packets=1), max_burst=0.0,
                           drop_early_suppress=False)
        pie.controller.p = 1.0
        assert pie.on_enqueue(make_packet()) is Decision.PASS

    def test_ecn_dropped_above_threshold(self, sim):
        pie = attached_pie(
            sim, StubQueue(delay=0.5, packets=100), max_burst=0.0,
            drop_early_suppress=False, ecn_drop_threshold=0.1,
        )
        pie.controller.p = 0.5
        pie._qdelay_old = 0.5
        assert pie.on_enqueue(make_packet(ecn=ECN.ECT0)) is Decision.DROP

    def test_ecn_marked_below_threshold(self, sim):
        pie = attached_pie(
            sim, StubQueue(delay=0.5, packets=100), max_burst=0.0,
            drop_early_suppress=False, ecn_drop_threshold=0.1,
            rng=random.Random(5),
        )
        pie.controller.p = 0.09
        pie._qdelay_old = 0.5
        decisions = {pie.on_enqueue(make_packet(ecn=ECN.ECT0)) for _ in range(200)}
        assert Decision.MARK in decisions
        assert Decision.DROP not in decisions

    def test_reworked_ecn_rule_never_drops_ect(self, sim):
        # ecn_drop_threshold=None is the paper's PIE configuration.
        pie = attached_pie(
            sim, StubQueue(delay=0.5, packets=100), max_burst=0.0,
            drop_early_suppress=False,
        )
        pie.controller.p = 0.9
        pie._qdelay_old = 0.5
        decisions = {pie.on_enqueue(make_packet(ecn=ECN.ECT0)) for _ in range(200)}
        assert Decision.DROP not in decisions

    @pytest.mark.parametrize("ecn", list(ECN), ids=lambda c: c.name)
    def test_signal_follows_ecn_capable(self, sim, ecn):
        # on_enqueue tests the codepoint inline; it must mark exactly the
        # packets Packet.ecn_capable calls ECN-capable.  At p = 1, with the
        # burst allowance and early-drop suppression off, every packet is
        # signalled.
        pie = attached_pie(
            sim, StubQueue(delay=0.5, packets=100), max_burst=0.0,
            drop_early_suppress=False,
        )
        pie.controller.p = 1.0
        pkt = make_packet(ecn=ecn)
        expected = Decision.MARK if pkt.ecn_capable else Decision.DROP
        assert pie.on_enqueue(pkt) is expected

    def test_dp_cap_limits_growth_above_10pct(self, sim):
        queue = StubQueue(delay=1.0)  # huge error
        pie = attached_pie(sim, queue, max_burst=0.0, delay_kick_enabled=False)
        pie.controller.p = 0.2
        pie._qdelay_old = 1.0
        pie.controller.prev_delay = 1.0
        pie.update()
        assert pie.probability == pytest.approx(0.22)

    def test_delay_kick_above_250ms(self, sim):
        queue = StubQueue(delay=0.3)
        with_kick = attached_pie(sim, queue, max_burst=0.0)
        without = attached_pie(sim, queue, max_burst=0.0, delay_kick_enabled=False)
        with_kick.update()
        without.update()
        assert with_kick.probability == pytest.approx(without.probability + 0.02)

    def test_decay_when_queue_empty(self, sim):
        pie = attached_pie(sim, StubQueue(delay=0.0), max_burst=0.0)
        pie.controller.p = 0.5
        pie._qdelay_old = 0.0
        pie.update()
        # α error is negative too, so p ≤ 0.98 × 0.5 minus the PI pull-down.
        assert pie.probability <= 0.5 * 0.98

    def test_probability_bounded(self, sim):
        pie = attached_pie(sim, StubQueue(delay=10.0), max_burst=0.0)
        for _ in range(500):
            pie.update()
        assert 0.0 <= pie.probability <= 1.0


class TestBarePie:
    def test_all_heuristics_disabled(self, sim):
        bare = BarePieAqm(rng=random.Random(1))
        assert bare.max_burst == 0.0
        assert bare.ecn_drop_threshold is None
        assert not bare.dp_cap_enabled
        assert not bare.delay_kick_enabled
        assert not bare.drop_early_suppress
        assert not bare.decay_enabled

    def test_auto_tune_still_on(self, sim):
        assert BarePieAqm(rng=random.Random(1)).auto_tune

    def test_bare_pie_still_controls(self, sim):
        bare = BarePieAqm(rng=random.Random(1))
        bare.attach(sim, StubQueue(delay=0.05))
        sim.run(2.0)
        assert bare.probability > 0.0
