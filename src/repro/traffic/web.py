"""Web-like short-flow workload generator.

Section 6 notes that "mixed short flow completion times with PIE, bare
PIE and PI2 under both heavy and light Web-like workloads were essentially
the same"; this generator provides those workloads so the short-FCT
benchmark can check the claim.

The model is the standard one used in AQM evaluations (and in the paper's
companion DualQ evaluation [12]): flows arrive as a Poisson process and
flow sizes are heavy-tailed.  We use a bounded Pareto size distribution
(shape 1.2, mean configurable) — most flows are a handful of segments,
a few are large — and each flow runs a fresh TCP sender to completion.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional

from repro.sim.engine import Simulator

__all__ = ["WebWorkload", "bounded_pareto_segments"]


def bounded_pareto_segments(
    rng: random.Random,
    shape: float = 1.2,
    minimum: int = 2,
    maximum: int = 2000,
) -> int:
    """Draw a flow size in segments from a bounded Pareto distribution."""
    if shape <= 0:
        raise ValueError(f"shape must be positive (got {shape})")
    if not 0 < minimum < maximum:
        raise ValueError(f"need 0 < minimum < maximum (got {minimum}, {maximum})")
    u = rng.random()
    lo, hi = float(minimum), float(maximum)
    # Inverse-CDF sampling of the bounded Pareto.
    x = (-(u * hi ** shape - u * lo ** shape - hi ** shape) / (hi ** shape * lo ** shape)) ** (
        -1.0 / shape
    )
    return max(minimum, min(maximum, int(round(x))))


class WebWorkload:
    """Poisson arrivals of short TCP flows.

    Parameters
    ----------
    sim:
        The driving simulator.
    spawn_flow:
        Callback ``(flow_size_segments, on_complete) -> None`` provided by
        the harness; it creates and starts a fresh sender/receiver pair.
        ``on_complete`` receives the flow completion time in seconds.
    arrival_rate:
        Mean flow arrivals per second (load knob: 'light' vs 'heavy').
    rng:
        Seeded random stream (arrivals and sizes).
    """

    def __init__(
        self,
        sim: Simulator,
        spawn_flow: Callable[[int, Callable[[float], None]], None],
        arrival_rate: float,
        rng: random.Random,
        size_shape: float = 1.2,
        size_min: int = 2,
        size_max: int = 2000,
    ):
        if arrival_rate <= 0:
            raise ValueError(f"arrival rate must be positive (got {arrival_rate})")
        self.sim = sim
        self.spawn_flow = spawn_flow
        self.arrival_rate = arrival_rate
        self.rng = rng
        self.size_shape = size_shape
        self.size_min = size_min
        self.size_max = size_max
        self.flows_started = 0
        self.completion_times: List[float] = []
        self.flow_sizes: List[int] = []

    def start(self, at: float = 0.0, until: Optional[float] = None) -> None:
        self._until = until
        self.sim.at(at, self._arrival)

    def _arrival(self) -> None:
        if self._until is not None and self.sim.now >= self._until:
            return
        size = bounded_pareto_segments(
            self.rng, self.size_shape, self.size_min, self.size_max
        )
        self.flows_started += 1
        self.flow_sizes.append(size)
        self.spawn_flow(size, self.completion_times.append)
        gap = self.rng.expovariate(self.arrival_rate)
        self.sim.schedule(gap, self._arrival)

    # ------------------------------------------------------------------
    def mean_fct(self) -> float:
        """Mean flow completion time over completed flows (seconds)."""
        if not self.completion_times:
            return math.nan
        return sum(self.completion_times) / len(self.completion_times)

    def percentile_fct(self, q: float) -> float:
        """The q-th percentile (0–100) of completion times."""
        if not self.completion_times:
            return math.nan
        data = sorted(self.completion_times)
        idx = min(len(data) - 1, max(0, int(round(q / 100.0 * (len(data) - 1)))))
        return data[idx]
