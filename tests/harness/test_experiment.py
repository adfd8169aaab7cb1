"""Unit tests for experiment configuration and the runner."""

import pytest

from repro.errors import ConfigError
from repro.harness.experiment import Experiment, FlowGroup, UdpGroup, run_experiment
from repro.harness.factories import pi2_factory, taildrop_factory


def quick_experiment(**overrides):
    defaults = dict(
        capacity_bps=10e6,
        duration=8.0,
        warmup=2.0,
        aqm_factory=pi2_factory(),
        flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
        sample_period=0.5,
    )
    defaults.update(overrides)
    return Experiment(**defaults)


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            quick_experiment(capacity_bps=0)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            quick_experiment(duration=0)

    def test_warmup_must_precede_duration(self):
        with pytest.raises(ValueError):
            quick_experiment(warmup=10.0, duration=8.0)

    @pytest.mark.parametrize("field", ["capacity_bps", "duration"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_and_duration_rejected(self, field, value):
        # NaN passes a ``<= 0`` check, and an infinite duration never ends.
        with pytest.raises(ConfigError, match="must be positive and finite"):
            quick_experiment(**{field: value})

    @pytest.mark.parametrize("rtt", [0.0, -0.005, float("nan"), float("inf")])
    def test_flow_rtt_must_be_positive_and_finite(self, rtt):
        flows = [FlowGroup("reno", 1, 0.02), FlowGroup("cubic", 1, rtt)]
        with pytest.raises(ConfigError, match=r"flows\[1\] rtt must be positive"):
            quick_experiment(flows=flows)

    def test_flow_group_count_positive(self):
        with pytest.raises(ValueError):
            FlowGroup(cc="reno", count=0, rtt=0.02)

    @pytest.mark.parametrize("count", [-1, float("nan"), float("inf")])
    def test_flow_group_count_must_be_positive_and_finite(self, count):
        # A NaN count passes a ``<= 0`` check; it, and an infinite one,
        # failed only inside the run, with a TypeError from the wiring.
        with pytest.raises(ConfigError, match="count must be positive and finite"):
            FlowGroup(cc="reno", count=count, rtt=0.02)

    # Each group check below raises at construction, so no simulation
    # runs: before them, each of these configurations failed only inside
    # run_experiment, or ran silently, or (an infinite UDP rate) never
    # returned.
    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -1e6])
    def test_udp_rate_must_be_positive_and_finite(self, rate):
        udp = [UdpGroup(1e6), UdpGroup(rate)]
        with pytest.raises(ConfigError, match=r"udp\[1\] rate_bps must be positive"):
            quick_experiment(udp=udp)

    def test_udp_count_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"udp\[0\] count must be positive"):
            quick_experiment(udp=[UdpGroup(1e6, count=0)])

    @pytest.mark.parametrize("stop", [1.0, 2.0, float("nan")])
    def test_udp_stop_must_be_after_start(self, stop):
        # Before start (or at it) the flow sends nothing; NaN never stops.
        with pytest.raises(ConfigError, match=r"udp\[0\] stop .* must be after start"):
            quick_experiment(udp=[UdpGroup(1e6, start=2.0, stop=stop)])

    @pytest.mark.parametrize("start", [float("nan"), -1.0, float("inf")])
    def test_udp_start_must_be_non_negative_and_finite(self, start):
        with pytest.raises(ConfigError, match=r"udp\[0\] start must be non-negative"):
            quick_experiment(udp=[UdpGroup(1e6, start=start)])

    @pytest.mark.parametrize("start", [float("nan"), -1.0, float("inf")])
    def test_flow_start_must_be_non_negative_and_finite(self, start):
        flows = [FlowGroup("reno", 1, 0.02), FlowGroup("reno", 1, 0.02, start=start)]
        with pytest.raises(ConfigError, match=r"flows\[1\] start must be non-negative"):
            quick_experiment(flows=flows)

    @pytest.mark.parametrize("stop", [1.0, 2.0, float("nan")])
    def test_flow_stop_must_be_after_start(self, stop):
        flows = [FlowGroup("reno", 1, 0.02, start=2.0, stop=stop)]
        with pytest.raises(ConfigError, match=r"flows\[0\] stop .* must be after start"):
            quick_experiment(flows=flows)

    def test_flow_cc_must_be_known(self):
        flows = [FlowGroup("reno", 1, 0.02), FlowGroup("vegas", 1, 0.02)]
        with pytest.raises(ConfigError, match=r"flows\[1\] has unknown congestion control 'vegas'"):
            quick_experiment(flows=flows)

    # NaN passes a ``x <= 0`` check: a NaN watchdog budget never trips, a
    # NaN buffer never tail-drops, and a NaN sample period or a zero flow
    # size failed only inside the run, as a ValueError from the engine
    # or the sender.
    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(sample_period=float("nan")), "sample_period must be positive"),
            (dict(buffer_packets=float("nan")), "buffer_packets must be positive"),
            (dict(max_events=float("nan")), "max_events must be positive"),
            (dict(max_wall_seconds=float("nan")), "max_wall_seconds must be positive"),
            (
                dict(flows=[FlowGroup("reno", 1, 0.02), FlowGroup("reno", 1, 0.02, flow_size=0)]),
                r"flows\[1\] flow_size must be positive",
            ),
            (
                dict(flows=[FlowGroup("reno", 1, 0.02, flow_size=float("nan"))]),
                r"flows\[0\] flow_size must be positive",
            ),
        ],
        ids=["sample_period", "buffer_packets", "max_events", "max_wall_seconds",
             "flow_size_zero", "flow_size_nan"],
    )
    def test_nan_and_zero_settings_rejected_before_the_run(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            quick_experiment(**overrides)

    def test_infinite_sample_period_rejected(self):
        # It would take no sample, and every series summary would be NaN.
        with pytest.raises(ConfigError, match="sample_period must be positive and finite"):
            quick_experiment(sample_period=float("inf"))


class TestRun:
    def test_runs_and_reports_goodput(self):
        result = run_experiment(quick_experiment())
        rates = result.goodputs("reno")
        assert len(rates) == 2
        assert sum(rates) > 1e6  # the 10 Mb/s link is mostly used

    def test_labels(self):
        result = run_experiment(quick_experiment())
        assert result.class_labels() == ["reno"]

    def test_udp_groups_run(self):
        result = run_experiment(
            quick_experiment(udp=[UdpGroup(rate_bps=1e6, count=2)])
        )
        assert "udp" in result.class_labels()

    def test_capacity_schedule_applied(self):
        result = run_experiment(
            quick_experiment(capacity_schedule=[(4.0, 5e6)])
        )
        assert result.bed.link.capacity_bps == 5e6

    def test_reproducible_with_same_seed(self):
        a = run_experiment(quick_experiment(seed=9))
        b = run_experiment(quick_experiment(seed=9))
        assert a.goodputs("reno") == b.goodputs("reno")
        assert a.queue_delay.values.tolist() == b.queue_delay.values.tolist()

    def test_different_seeds_differ(self):
        a = run_experiment(quick_experiment(seed=1))
        b = run_experiment(quick_experiment(seed=2))
        assert a.goodputs("reno") != b.goodputs("reno")

    def test_taildrop_factory_runs(self):
        result = run_experiment(quick_experiment(aqm_factory=taildrop_factory()))
        assert result.aqm is None
        assert sum(result.goodputs("reno")) > 1e6

    def test_summaries_available(self):
        result = run_experiment(quick_experiment())
        s = result.sojourn_summary()
        assert set(s) == {"mean", "p1", "p25", "p50", "p99"}
        u = result.utilization_summary()
        assert "mean" in u
        assert 0 <= result.mean_utilization() <= 1.01
