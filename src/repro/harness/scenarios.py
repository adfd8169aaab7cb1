"""Canned experiment builders for every scenario in the paper's evaluation.

Each function returns an :class:`~repro.harness.experiment.Experiment`
reproducing one of Section 6's setups, parameterized by the AQM factory
(so every scenario can run under PIE, bare-PIE, PI, PI2 or coupled) and by
a ``time_scale`` that shrinks the paper's 50 s stages for test/benchmark
budgets without changing the dynamics being exercised (stages remain many
multiples of both the RTT and the AQM update interval).
"""

from __future__ import annotations


from repro.harness.experiment import AqmFactory, Experiment, FlowGroup, UdpGroup

__all__ = [
    "light_tcp",
    "heavy_tcp",
    "tcp_plus_udp",
    "varying_intensity",
    "varying_capacity",
    "coexistence_pair",
    "coexistence_mix",
    "MBPS",
]

#: Convenience unit.
MBPS = 1e6


def light_tcp(
    aqm_factory: AqmFactory,
    cc: str = "reno",
    capacity_bps: float = 10 * MBPS,
    rtt: float = 0.100,
    duration: float = 50.0,
    seed: int = 1,
) -> Experiment:
    """Figure 11a: light load — 5 long-running TCP flows, 10 Mb/s, 100 ms."""
    return Experiment(
        capacity_bps=capacity_bps,
        duration=duration,
        aqm_factory=aqm_factory,
        flows=[FlowGroup(cc=cc, count=5, rtt=rtt)],
        warmup=min(10.0, duration / 3),
        seed=seed,
    )


def heavy_tcp(
    aqm_factory: AqmFactory,
    cc: str = "reno",
    capacity_bps: float = 10 * MBPS,
    rtt: float = 0.100,
    duration: float = 50.0,
    seed: int = 1,
) -> Experiment:
    """Figure 11b: heavy load — 50 long-running TCP flows."""
    return Experiment(
        capacity_bps=capacity_bps,
        duration=duration,
        aqm_factory=aqm_factory,
        flows=[FlowGroup(cc=cc, count=50, rtt=rtt)],
        warmup=min(10.0, duration / 3),
        seed=seed,
    )


def tcp_plus_udp(
    aqm_factory: AqmFactory,
    cc: str = "reno",
    capacity_bps: float = 10 * MBPS,
    rtt: float = 0.100,
    udp_rate_bps: float = 6 * MBPS,
    udp_count: int = 2,
    duration: float = 50.0,
    seed: int = 1,
) -> Experiment:
    """Figure 11c: 5 TCP flows + 2 unresponsive 6 Mb/s UDP flows
    (12 Mb/s of UDP into a 10 Mb/s bottleneck — unresponsive overload)."""
    return Experiment(
        capacity_bps=capacity_bps,
        duration=duration,
        aqm_factory=aqm_factory,
        flows=[FlowGroup(cc=cc, count=5, rtt=rtt)],
        udp=[UdpGroup(rate_bps=udp_rate_bps, count=udp_count)],
        warmup=min(10.0, duration / 3),
        seed=seed,
    )


def varying_intensity(
    aqm_factory: AqmFactory,
    cc: str = "reno",
    capacity_bps: float = 10 * MBPS,
    rtt: float = 0.100,
    stage: float = 50.0,
    seed: int = 1,
) -> Experiment:
    """Figures 6 and 13: 10:30:50:30:10 flows over five equal stages.

    Ten flows run throughout; twenty more join for stages 2–4; a further
    twenty only for stage 3.  Figure 6 uses 100 Mb/s / 10 ms RTT;
    Figure 13 uses 10 Mb/s / 100 ms RTT (the defaults here).
    """
    return Experiment(
        capacity_bps=capacity_bps,
        duration=5 * stage,
        aqm_factory=aqm_factory,
        flows=[
            FlowGroup(cc=cc, count=10, rtt=rtt),
            FlowGroup(cc=cc, count=20, rtt=rtt, start=stage, stop=4 * stage),
            FlowGroup(cc=cc, count=20, rtt=rtt, start=2 * stage, stop=3 * stage),
        ],
        warmup=min(10.0, stage / 2),
        seed=seed,
    )


def varying_capacity(
    aqm_factory: AqmFactory,
    cc: str = "reno",
    rtt: float = 0.100,
    flows: int = 20,
    stage: float = 50.0,
    high_bps: float = 100 * MBPS,
    low_bps: float = 20 * MBPS,
    seed: int = 1,
) -> Experiment:
    """Figure 12: link capacity 100:20:100 Mb/s over three equal stages."""
    return Experiment(
        capacity_bps=high_bps,
        duration=3 * stage,
        aqm_factory=aqm_factory,
        flows=[FlowGroup(cc=cc, count=flows, rtt=rtt)],
        capacity_schedule=[(stage, low_bps), (2 * stage, high_bps)],
        warmup=min(10.0, stage / 2),
        seed=seed,
    )


def coexistence_pair(
    aqm_factory: AqmFactory,
    cc_a: str = "dctcp",
    cc_b: str = "cubic",
    capacity_bps: float = 40 * MBPS,
    rtt: float = 0.010,
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 1,
) -> Experiment:
    """Figures 15–18: one long-running flow of each congestion control.

    The paper sweeps link ∈ {4, 12, 40, 120, 200} Mb/s ×
    RTT ∈ {5, 10, 20, 50, 100} ms; this builder makes one grid cell.
    """
    return Experiment(
        capacity_bps=capacity_bps,
        duration=duration,
        aqm_factory=aqm_factory,
        flows=[
            FlowGroup(cc=cc_a, count=1, rtt=rtt, label=cc_a),
            FlowGroup(cc=cc_b, count=1, rtt=rtt, label=cc_b),
        ],
        warmup=warmup,
        seed=seed,
    )


def coexistence_mix(
    aqm_factory: AqmFactory,
    n_a: int,
    n_b: int,
    cc_a: str = "dctcp",
    cc_b: str = "cubic",
    capacity_bps: float = 40 * MBPS,
    rtt: float = 0.010,
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 1,
) -> Experiment:
    """Figures 19–20: ``n_a`` flows of class A vs ``n_b`` of class B
    (the paper's A1-B1 … A10-B0 combinations at 40 Mb/s / 10 ms)."""
    flows = []
    if n_a > 0:
        flows.append(FlowGroup(cc=cc_a, count=n_a, rtt=rtt, label=cc_a))
    if n_b > 0:
        flows.append(FlowGroup(cc=cc_b, count=n_b, rtt=rtt, label=cc_b))
    if not flows:
        raise ValueError("at least one flow is required")
    return Experiment(
        capacity_bps=capacity_bps,
        duration=duration,
        aqm_factory=aqm_factory,
        flows=flows,
        warmup=warmup,
        seed=seed,
    )

