"""Unit tests for the PI2 AQM (Sections 4–5, Figure 8)."""

import random

import pytest

from repro.aqm.base import Decision
from repro.core.pi2 import DEFAULT_ALPHA_PI2, DEFAULT_BETA_PI2, Pi2Aqm
from repro.net.packet import ECN
from tests.conftest import StubQueue, make_packet


def pi2(**kwargs):
    kwargs.setdefault("rng", random.Random(1))
    return Pi2Aqm(**kwargs)


class TestDefaults:
    def test_gains_are_2_5x_pie(self):
        aqm = pi2()
        assert aqm.controller.alpha == pytest.approx(2.5 * 0.125)
        assert aqm.controller.beta == pytest.approx(2.5 * 1.25)
        assert DEFAULT_ALPHA_PI2 == 0.3125
        assert DEFAULT_BETA_PI2 == 3.125

    def test_target_and_interval(self):
        aqm = pi2()
        assert aqm.controller.target == 0.020
        assert aqm.update_interval == 0.032

    def test_classic_cap_clamps_p_prime(self):
        aqm = pi2(classic_p_max=0.25)
        assert aqm.controller.p_max == pytest.approx(0.5)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            Pi2Aqm(decision_mode="nope")
        with pytest.raises(ValueError):
            Pi2Aqm(classic_p_max=0.0)


class TestSquaredOutput:
    def test_probability_is_square_of_raw(self):
        aqm = pi2()
        aqm.controller.p = 0.3
        assert aqm.raw_probability == pytest.approx(0.3)
        assert aqm.probability == pytest.approx(0.09)

    def test_multiply_mode_signal_rate(self):
        aqm = pi2(decision_mode="multiply")
        aqm.controller.p = 0.4
        n = 40_000
        hits = sum(aqm.on_enqueue(make_packet()) is Decision.DROP for _ in range(n))
        assert hits / n == pytest.approx(0.16, rel=0.05)

    def test_two_randoms_mode_signal_rate(self):
        aqm = pi2(decision_mode="two-randoms")
        aqm.controller.p = 0.4
        n = 40_000
        hits = sum(aqm.on_enqueue(make_packet()) is Decision.DROP for _ in range(n))
        assert hits / n == pytest.approx(0.16, rel=0.05)

    def test_decision_modes_distributionally_equivalent(self):
        # Section 5: max(Y1,Y2) < p' signals with probability p'², the
        # same Bernoulli law as rand() < p'².
        n = 60_000
        rates = {}
        for mode in ("multiply", "two-randoms"):
            aqm = pi2(decision_mode=mode, rng=random.Random(7))
            aqm.controller.p = 0.25
            hits = sum(
                aqm.on_enqueue(make_packet()) is Decision.DROP for _ in range(n)
            )
            rates[mode] = hits / n
        assert rates["multiply"] == pytest.approx(rates["two-randoms"], rel=0.08)
        assert rates["multiply"] == pytest.approx(0.0625, rel=0.08)

    def test_zero_p_prime_passes_everything(self):
        aqm = pi2()
        assert all(
            aqm.on_enqueue(make_packet()) is Decision.PASS for _ in range(200)
        )


class TestEcnHandling:
    def test_not_ect_dropped_ect_marked(self):
        aqm = pi2(rng=random.Random(2))
        aqm.controller.p = 0.5  # p = 0.25
        got = {Decision.PASS}
        for _ in range(500):
            got.add(aqm.on_enqueue(make_packet(ecn=ECN.NOT_ECT)))
        assert Decision.DROP in got
        got_ect = {aqm.on_enqueue(make_packet(ecn=ECN.ECT0)) for _ in range(500)}
        assert Decision.MARK in got_ect
        assert Decision.DROP not in got_ect

    @pytest.mark.parametrize("ecn", list(ECN), ids=lambda c: c.name)
    def test_signal_follows_ecn_capable(self, ecn):
        # on_enqueue tests the codepoint inline; it must mark exactly the
        # packets Packet.ecn_capable calls ECN-capable.  At p' = 1 every
        # packet is signalled.
        aqm = pi2()
        aqm.controller.p = 1.0
        pkt = make_packet(ecn=ecn)
        expected = Decision.MARK if pkt.ecn_capable else Decision.DROP
        assert aqm.on_enqueue(pkt) is expected

    def test_ecn_disabled_drops_ect(self):
        aqm = pi2(ecn=False, rng=random.Random(2))
        aqm.controller.p = 0.5
        got = {aqm.on_enqueue(make_packet(ecn=ECN.ECT0)) for _ in range(500)}
        assert Decision.DROP in got
        assert Decision.MARK not in got


class TestControl:
    def test_no_heuristics_no_scaling(self, sim):
        """PI2's update is the bare PI step — no tune, no burst, no caps."""
        aqm = pi2()
        aqm.attach(sim, StubQueue(delay=0.030))
        aqm.update()
        expected = DEFAULT_ALPHA_PI2 * 0.010 + DEFAULT_BETA_PI2 * 0.030
        assert aqm.raw_probability == pytest.approx(expected)

    def test_drives_p_up_with_standing_queue(self, sim):
        aqm = pi2()
        aqm.attach(sim, StubQueue(delay=0.100))
        sim.run(2.0)
        assert aqm.raw_probability > 0.1

    def test_p_prime_saturates_at_sqrt_cap(self, sim):
        aqm = pi2(classic_p_max=0.25)
        aqm.attach(sim, StubQueue(delay=1.0))
        sim.run(5.0)
        assert aqm.raw_probability == pytest.approx(0.5)
        assert aqm.probability == pytest.approx(0.25)

    def test_returns_to_zero_when_queue_clears(self, sim):
        aqm = pi2()
        queue = StubQueue(delay=0.100)
        aqm.attach(sim, queue)
        sim.run(2.0)
        queue.delay = 0.0
        sim.run(6.0)
        assert aqm.raw_probability == 0.0
