"""Unit tests for the fault-injection module: adverse pipes, the
Gilbert–Elliott model's empirical statistics, fault dataclass validation
and the CLI fault-spec mini-language."""

import random

import pytest

from repro.errors import ConfigError
from repro.net.faults import (
    AqmStallFault,
    AqmTimerJitterFault,
    BurstLossFault,
    CorruptionFault,
    DuplicatingPipe,
    FaultInjector,
    GilbertElliottLoss,
    GilbertElliottPipe,
    LinkFlapFault,
    ReorderingPipe,
    parse_fault_spec,
)
from repro.net.node import CountingSink
from repro.sim.engine import Simulator
from tests.conftest import make_packet


# ----------------------------------------------------------------------
# Gilbert–Elliott model statistics
# ----------------------------------------------------------------------
class TestGilbertElliott:
    def _burst_lengths(self, model, n):
        """Per-packet drop decisions folded into loss-burst run lengths."""
        bursts, current = [], 0
        for _ in range(n):
            if model.should_drop():
                current += 1
            elif current:
                bursts.append(current)
                current = 0
        if current:
            bursts.append(current)
        return bursts

    def test_empirical_loss_rate_matches_target(self):
        model = GilbertElliottLoss.from_rates(
            random.Random(7), loss_rate=0.05, mean_burst=8.0
        )
        n = 200_000
        losses = sum(model.should_drop() for _ in range(n))
        assert losses / n == pytest.approx(0.05, rel=0.10)

    def test_empirical_mean_burst_matches_target(self):
        model = GilbertElliottLoss.from_rates(
            random.Random(11), loss_rate=0.05, mean_burst=8.0
        )
        bursts = self._burst_lengths(model, 400_000)
        assert len(bursts) > 100
        mean = sum(bursts) / len(bursts)
        assert mean == pytest.approx(8.0, rel=0.15)

    def test_bursts_are_longer_than_bernoulli(self):
        """Same loss rate, but correlated: bursts must beat the geometric
        run lengths an independent Bernoulli process would produce."""
        ge = GilbertElliottLoss.from_rates(
            random.Random(3), loss_rate=0.05, mean_burst=10.0
        )
        ge_bursts = self._burst_lengths(ge, 300_000)
        bern = random.Random(3)
        bern_bursts, current = [], 0
        for _ in range(300_000):
            if bern.random() < 0.05:
                current += 1
            elif current:
                bern_bursts.append(current)
                current = 0
        ge_mean = sum(ge_bursts) / len(ge_bursts)
        bern_mean = sum(bern_bursts) / len(bern_bursts)
        assert ge_mean > 3 * bern_mean

    def test_burst_length_distribution_is_geometric(self):
        """Bad-state sojourns are geometric: P(len > 2·mean) ≈ e^-2."""
        mean_burst = 5.0
        model = GilbertElliottLoss.from_rates(
            random.Random(19), loss_rate=0.10, mean_burst=mean_burst
        )
        bursts = self._burst_lengths(model, 400_000)
        frac_long = sum(b > 2 * mean_burst for b in bursts) / len(bursts)
        # Geometric(p=1/5): P(len > 10) = (1 - 1/5)^10 ≈ 0.107
        assert frac_long == pytest.approx(0.107, abs=0.05)

    def test_from_rates_validation(self):
        rng = random.Random(1)
        with pytest.raises(ConfigError):
            GilbertElliottLoss.from_rates(rng, loss_rate=0.0, mean_burst=8.0)
        with pytest.raises(ConfigError):
            GilbertElliottLoss.from_rates(rng, loss_rate=1.0, mean_burst=8.0)
        with pytest.raises(ConfigError):
            GilbertElliottLoss.from_rates(rng, loss_rate=0.05, mean_burst=0.5)
        with pytest.raises(ConfigError):
            # 90% loss with 1-packet bursts needs p_gb = 9 > 1.
            GilbertElliottLoss.from_rates(rng, loss_rate=0.9, mean_burst=1.0)

    def test_transition_probability_validation(self):
        with pytest.raises(ConfigError):
            GilbertElliottLoss(random.Random(1), 1.5, 0.1)


# ----------------------------------------------------------------------
# Adverse pipes
# ----------------------------------------------------------------------
class TestFaultPipes:
    def test_gilbert_elliott_pipe_drops_and_counts(self, sim):
        sink = CountingSink()
        model = GilbertElliottLoss.from_rates(
            random.Random(5), loss_rate=0.2, mean_burst=4.0
        )
        pipe = GilbertElliottPipe(sim, 0.0, model, sink=sink)
        n = 20_000
        for _ in range(n):
            pipe.deliver(make_packet())
        assert pipe.lost + sink.packets == n
        assert pipe.lost / n == pytest.approx(0.2, rel=0.15)

    def test_reordering_pipe_reorders(self, sim):
        order = []

        class Recorder:
            def deliver(self, pkt):
                order.append(pkt.seq)

        pipe = ReorderingPipe(
            sim, 0.010, reorder=0.3, extra_delay=0.050,
            rng=random.Random(4), sink=Recorder(),
        )
        for i in range(200):
            sim.schedule(i * 0.001, pipe.deliver, make_packet(seq=i))
        sim.run(10.0)
        assert sorted(order) == list(range(200))  # nothing lost
        assert order != list(range(200))  # but not in order
        assert pipe.reordered > 0

    def test_reordering_pipe_zero_probability_is_in_order(self, sim):
        order = []

        class Recorder:
            def deliver(self, pkt):
                order.append(pkt.seq)

        pipe = ReorderingPipe(
            sim, 0.010, reorder=0.0, extra_delay=0.050,
            rng=random.Random(4), sink=Recorder(),
        )
        for i in range(50):
            sim.schedule(i * 0.001, pipe.deliver, make_packet(seq=i))
        sim.run(10.0)
        assert order == list(range(50))

    def test_reordering_pipe_validation(self, sim):
        rng = random.Random(1)
        with pytest.raises(ConfigError):
            ReorderingPipe(sim, 0.0, reorder=2.0, extra_delay=0.01, rng=rng)
        with pytest.raises(ConfigError):
            ReorderingPipe(sim, 0.0, reorder=0.1, extra_delay=0.0, rng=rng)

    def test_duplicating_pipe_duplicates(self, sim):
        sink = CountingSink()
        pipe = DuplicatingPipe(
            sim, 0.005, duplicate=0.25, rng=random.Random(6),
            dup_gap=0.001, sink=sink,
        )
        n = 4000
        for _ in range(n):
            pipe.deliver(make_packet())
        sim.run(5.0)
        assert sink.packets == n + pipe.duplicated
        assert pipe.duplicated / n == pytest.approx(0.25, rel=0.1)

    def test_duplicating_pipe_validation(self, sim):
        rng = random.Random(1)
        with pytest.raises(ConfigError):
            DuplicatingPipe(sim, 0.0, duplicate=-0.1, rng=rng)
        with pytest.raises(ConfigError):
            DuplicatingPipe(sim, 0.0, duplicate=0.1, rng=rng, dup_gap=-1.0)


# ----------------------------------------------------------------------
# Fault dataclasses
# ----------------------------------------------------------------------
class TestFaultDataclasses:
    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError):
            LinkFlapFault(-1.0, 2.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError):
            AqmStallFault(5.0, 0.0)

    def test_flap_count_requires_repeat(self):
        with pytest.raises(ConfigError):
            LinkFlapFault(5.0, 2.0, count=3)

    def test_flap_repeat_must_exceed_duration(self):
        with pytest.raises(ConfigError):
            LinkFlapFault(5.0, 2.0, repeat_every=1.0, count=2)

    def test_flap_windows(self):
        fault = LinkFlapFault(10.0, 2.0, repeat_every=20.0, count=3)
        assert fault.windows() == [(10.0, 12.0), (30.0, 32.0), (50.0, 52.0)]
        assert fault.end == 52.0

    def test_burst_loss_validation(self):
        with pytest.raises(ConfigError):
            BurstLossFault(0.0, 5.0, loss_rate=1.5)
        with pytest.raises(ConfigError):
            BurstLossFault(0.0, 5.0, mean_burst=0.2)

    def test_corruption_validation(self):
        with pytest.raises(ConfigError):
            CorruptionFault(0.0, 5.0, probability=0.0)

    def test_jitter_validation(self):
        with pytest.raises(ConfigError):
            AqmTimerJitterFault(0.0, 5.0, max_jitter=-0.01)


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_missing_target_raises_config_error(self):
        sim = Simulator()
        injector = FaultInjector(sim, random.Random(1))  # no link/queue/aqm
        with pytest.raises(ConfigError):
            injector.install([LinkFlapFault(1.0, 0.5)])
        with pytest.raises(ConfigError):
            injector.install([BurstLossFault(1.0, 0.5)])
        with pytest.raises(ConfigError):
            injector.install([AqmStallFault(1.0, 0.5)])

    def test_unknown_fault_type_rejected(self):
        sim = Simulator()
        injector = FaultInjector(sim, random.Random(1))
        with pytest.raises(ConfigError):
            injector.install([object()])

    def test_timeline_records_flap_events(self):
        class FakeLink:
            def set_down(self):
                pass

            def set_up(self):
                pass

        sim = Simulator()
        injector = FaultInjector(sim, random.Random(1), link=FakeLink())
        injector.install([LinkFlapFault(1.0, 0.5, repeat_every=2.0, count=2)])
        sim.run(10.0)
        assert [t for t, _ in injector.timeline] == [1.0, 1.5, 3.0, 3.5]
        assert [m for _, m in injector.timeline] == [
            "link down", "link up", "link down", "link up",
        ]


# ----------------------------------------------------------------------
# CLI spec mini-language
# ----------------------------------------------------------------------
class TestParseFaultSpec:
    def test_flap(self):
        fault = parse_fault_spec("flap:30:2")
        assert fault == LinkFlapFault(30.0, 2.0)

    def test_flap_repeating(self):
        fault = parse_fault_spec("flap:30:2:20:3")
        assert fault == LinkFlapFault(30.0, 2.0, repeat_every=20.0, count=3)

    def test_burstloss_defaults(self):
        fault = parse_fault_spec("burstloss:10:15")
        assert fault == BurstLossFault(10.0, 15.0, loss_rate=0.05, mean_burst=8.0)

    def test_burstloss_full(self):
        fault = parse_fault_spec("burstloss:10:15:0.02:4")
        assert fault == BurstLossFault(10.0, 15.0, loss_rate=0.02, mean_burst=4.0)

    def test_corrupt_and_stall_and_jitter(self):
        assert parse_fault_spec("corrupt:5:3:0.02") == CorruptionFault(
            5.0, 3.0, probability=0.02
        )
        assert parse_fault_spec("stall:5:3") == AqmStallFault(5.0, 3.0)
        assert parse_fault_spec("jitter:5:3:0.02") == AqmTimerJitterFault(
            5.0, 3.0, max_jitter=0.02
        )

    def test_bad_specs_rejected(self):
        for spec in (
            "flap:30",  # missing duration
            "flap:a:b",  # not numbers
            "stall:5:3:1",  # too many fields
            "meteor:5:3",  # unknown kind
        ):
            with pytest.raises(ConfigError):
                parse_fault_spec(spec)
