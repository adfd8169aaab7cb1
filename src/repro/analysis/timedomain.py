"""Time-domain integration of the Appendix B fluid model.

The Bode analysis in :mod:`repro.analysis.bode` works on the *linearized*
loop; this module integrates the underlying **nonlinear delay-differential
equations** (15)–(18)/(22) + (16) directly, giving a second, independent
reproduction path for the dynamic experiments (Figures 6, 12, 13): the
same AQM code-paths can be exercised against the fluid plant instead of
the packet-level simulator, and the two substrates cross-validated.

Model (per Misra et al. [26] / Hollot et al. [19], paper equations):

    Reno windows:      dW/dt = 1/R(t) − b·W(t)·W(t−R)/R(t−R) · P(t−R)
    Scalable windows:  dW/dt = 1/R(t) − ½·W(t−R)/R(t−R) · P(t−R)
    queue:             dq/dt = N·W(t)/R(t) − C      (floored at q = 0)
    RTT:               R(t)  = q(t)/C + Tp

where ``P`` is the congestion-signal probability the AQM applies:
``p'²`` for PI2 on Reno (equation (18)), ``p`` for PIE/PI on Reno
(equation (15)), and ``p'`` for Scalable on PI (equation (22)).
The PI controller updates every ``t_update`` seconds exactly as the
packet-level implementations do.

Integration is explicit Euler with a fixed step and ring-buffer history
for the delayed terms — simple, deterministic, and accurate enough at
``dt ≤ 1 ms`` for the paper's 10–100 ms RTT regimes (the integration
tests check equilibrium against the closed forms of equation (19)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

__all__ = ["FluidScenario", "FluidResult", "simulate_fluid"]


@dataclass
class FluidScenario:
    """Configuration of one fluid-model run.

    ``flows(t)`` and ``capacity(t)`` may vary over time to express the
    paper's varying-intensity and varying-capacity experiments.
    """

    capacity_pps: float                  # link capacity in packets/second
    n_flows: float                       # number of flows (may be overridden)
    base_rtt: float                      # two-way propagation delay Tp [s]
    alpha: float                         # PI integral gain [Hz]
    beta: float                          # PI proportional gain [Hz]
    target_delay: float = 0.020          # τ0 [s]
    t_update: float = 0.032              # controller period T [s]
    #: Plant/controller pairing: "reno_pi2", "reno_pi" or "scal_pi".
    kind: str = "reno_pi2"
    #: Reno's multiplicative-decrease coefficient b (0.5 Reno, 0.7 CReno).
    decrease: float = 0.5
    duration: float = 30.0
    dt: float = 0.0005
    w0: float = 1.0
    flows: Optional[Callable[[float], float]] = None
    capacity: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("reno_pi2", "reno_pi", "scal_pi"):
            raise ValueError(f"unknown kind {self.kind!r}")
        # NaN passes a ``<= 0`` check, an infinite duration cannot be
        # stepped through, and an infinite rate or RTT leaves a model
        # with nothing in it, so each must be a finite positive number.
        if not all(
            x > 0 and math.isfinite(x)
            for x in (self.capacity_pps, self.n_flows, self.base_rtt)
        ):
            raise ValueError("capacity, flows and base RTT must be positive and finite")
        if not all(x > 0 and math.isfinite(x) for x in (self.dt, self.duration)):
            raise ValueError("dt and duration must be positive and finite")
        if self.dt > self.base_rtt / 4:
            raise ValueError(
                f"dt={self.dt} too coarse for base RTT {self.base_rtt}"
            )


@dataclass
class FluidResult:
    """Trajectories sampled every ``sample_dt`` seconds."""

    times: List[float] = field(default_factory=list)
    window: List[float] = field(default_factory=list)
    queue_delay: List[float] = field(default_factory=list)
    p_prime: List[float] = field(default_factory=list)
    applied_p: List[float] = field(default_factory=list)

    def tail_mean(self, attr: str, fraction: float = 0.25) -> float:
        """Mean of the last ``fraction`` of a trajectory (steady state)."""
        data = getattr(self, attr)
        n = max(1, int(len(data) * fraction))
        return sum(data[-n:]) / n

    def peak(self, attr: str, t_from: float = 0.0) -> float:
        data = getattr(self, attr)
        return max(
            v for t, v in zip(self.times, data) if t >= t_from
        )


def simulate_fluid(scenario: FluidScenario, sample_dt: float = 0.01) -> FluidResult:
    """Integrate the fluid model; returns sampled trajectories."""
    dt = scenario.dt
    steps = int(round(scenario.duration / dt))
    flows_at = scenario.flows or (lambda t: scenario.n_flows)
    capacity_at = scenario.capacity or (lambda t: scenario.capacity_pps)

    # History ring for (W, R, P) so the delayed terms can be looked up.
    max_delay = scenario.base_rtt + 1.0  # generous bound on R(t)
    hist_len = int(math.ceil(max_delay / dt)) + 2
    w_hist = [scenario.w0] * hist_len
    r_hist = [scenario.base_rtt] * hist_len
    p_hist = [0.0] * hist_len

    w = scenario.w0
    q = 0.0
    p_prime = 0.0
    prev_delay = 0.0
    next_update = scenario.t_update
    next_sample = 0.0

    result = FluidResult()
    is_scalable = scenario.kind == "scal_pi"
    squares = scenario.kind == "reno_pi2"

    for step in range(steps):
        t = step * dt
        capacity = capacity_at(t)
        n = flows_at(t)
        r = q / capacity + scenario.base_rtt

        # Delayed values from one RTT ago.
        lag = min(hist_len - 1, max(1, int(round(r / dt))))
        idx = (step - lag) % hist_len
        w_delayed = w_hist[idx]
        r_delayed = r_hist[idx]
        p_delayed = p_hist[idx]

        if is_scalable:
            shrink = 0.5 * w_delayed / r_delayed * p_delayed
        else:
            applied = p_delayed * p_delayed if squares else p_delayed
            shrink = scenario.decrease * w * w_delayed / r_delayed * applied
        dw = 1.0 / r - shrink
        dq = n * w / r - capacity

        w = max(1.0, w + dw * dt)
        q = max(0.0, q + dq * dt)

        # PI controller update on its own clock.
        if t >= next_update:
            delay = q / capacity
            delta = (
                scenario.alpha * (delay - scenario.target_delay)
                + scenario.beta * (delay - prev_delay)
            )
            p_prime = min(1.0, max(0.0, p_prime + delta))
            prev_delay = delay
            next_update += scenario.t_update

        cur = step % hist_len
        w_hist[cur] = w
        r_hist[cur] = r
        p_hist[cur] = p_prime

        if t >= next_sample:
            result.times.append(t)
            result.window.append(w)
            result.queue_delay.append(q / capacity)
            result.p_prime.append(p_prime)
            if is_scalable:
                result.applied_p.append(p_prime)
            else:
                result.applied_p.append(p_prime ** 2 if squares else p_prime)
            next_sample += sample_dt

    return result
