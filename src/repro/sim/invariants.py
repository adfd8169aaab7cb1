"""Optional runtime invariant checking for simulation components.

A discrete-event simulator fails in two ways: loudly (an exception) or
silently (state drifts into nonsense and the results are quietly wrong).
This module guards against the second kind.  An :class:`InvariantChecker`
rides the simulation on a periodic timer and asserts, at every tick, the
properties that must hold in any correct run:

* **packet conservation** — every packet that arrived at the bottleneck
  queue was either enqueued or dropped (by the AQM or at the buffer
  limit), and every enqueued packet is either dequeued or still resident;
* **clock monotonicity** — virtual time never runs backwards between
  checks;
* **probability range** — the AQM's applied and raw probabilities are
  finite and within ``[0, 1]``;
* **non-negative queue depth** — packet and byte backlogs never go
  negative.

Violations raise :class:`~repro.errors.InvariantViolation` carrying the
virtual time, the component and the observed values, which the engine
propagates as a structured error instead of letting the run continue on
corrupt state.  Enable via ``Experiment(validate=True)`` or the CLI's
``--validate`` flag; the cost is one pass over a handful of counters per
``check_interval`` (50 ms of virtual time by default), so it is cheap
enough to leave on outside of benchmark runs.
"""

from __future__ import annotations

from typing import Optional

from repro.aqm.base import is_unit_probability
from repro.errors import InvariantViolation
from repro.sim.engine import Simulator

__all__ = ["InvariantChecker", "DEFAULT_CHECK_INTERVAL"]

#: Default virtual-time spacing of periodic checks, in seconds.
DEFAULT_CHECK_INTERVAL = 0.05


class InvariantChecker:
    """Periodic consistency validator for a queue/AQM pair.

    Parameters
    ----------
    sim:
        The simulator whose clock is checked for monotonicity.
    queue:
        The bottleneck :class:`~repro.net.queue.AQMQueue` (or anything
        with the same ``stats``/length interface); ``None`` skips the
        queue checks.
    aqm:
        The AQM whose probabilities are range-checked; ``None`` (tail-drop
        runs) skips them.
    check_interval:
        Virtual-time spacing of the periodic checks.
    label:
        Component label used in violation reports.
    """

    def __init__(
        self,
        sim: Simulator,
        queue=None,
        aqm=None,
        check_interval: float = DEFAULT_CHECK_INTERVAL,
        label: str = "bottleneck",
    ):
        if check_interval <= 0:
            raise ValueError(f"check_interval must be positive (got {check_interval})")
        self.sim = sim
        self.queue = queue
        self.aqm = aqm
        self.check_interval = check_interval
        self.label = label
        self.checks_run = 0
        self._last_clock: Optional[float] = None
        self._timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic checking (first check after one interval)."""
        if self._timer is None:
            self._timer = self.sim.every(self.check_interval, self.check_now)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Run every invariant once; raises on the first violation."""
        self._check_clock()
        if self.queue is not None:
            self._check_queue_depth()
            self._check_conservation()
        if self.aqm is not None:
            self._check_probability()
        self.checks_run += 1

    def _violation(self, invariant: str, message: str, **context) -> InvariantViolation:
        return InvariantViolation(
            message,
            invariant=invariant,
            sim_time=self.sim.now,
            component=self.label,
            context=context,
        )

    def _check_clock(self) -> None:
        now = self.sim.now
        if self._last_clock is not None and now < self._last_clock:
            raise self._violation(
                "clock_monotonic",
                f"virtual clock ran backwards: {self._last_clock} -> {now}",
                previous=self._last_clock,
                current=now,
            )
        self._last_clock = now

    def _check_queue_depth(self) -> None:
        pkts = self.queue.packet_length()
        bytes_ = self.queue.byte_length()
        if pkts < 0 or bytes_ < 0:
            raise self._violation(
                "queue_depth",
                f"negative queue depth: {pkts} packets / {bytes_} bytes",
                packets=pkts,
                bytes=bytes_,
            )
        if pkts == 0 and bytes_ != 0:
            raise self._violation(
                "queue_depth",
                f"empty queue holds {bytes_} residual bytes",
                bytes=bytes_,
            )

    def _check_conservation(self) -> None:
        stats = getattr(self.queue, "stats", None)
        if stats is None:  # custom queues without the standard counters
            return
        if stats.arrived != stats.enqueued + stats.dropped:
            raise self._violation(
                "conservation",
                "arrival conservation broken: "
                f"arrived={stats.arrived} != enqueued={stats.enqueued} "
                f"+ dropped={stats.dropped}",
                arrived=stats.arrived,
                enqueued=stats.enqueued,
                dropped=stats.dropped,
            )
        resident = self.queue.packet_length()
        if stats.enqueued != stats.dequeued + resident:
            raise self._violation(
                "conservation",
                "occupancy conservation broken: "
                f"enqueued={stats.enqueued} != dequeued={stats.dequeued} "
                f"+ resident={resident}",
                enqueued=stats.enqueued,
                dequeued=stats.dequeued,
                resident=resident,
            )

    def _check_probability(self) -> None:
        for name in ("probability", "raw_probability"):
            value = getattr(self.aqm, name, None)
            if value is None:
                continue
            if not is_unit_probability(value):
                raise self._violation(
                    "probability_range",
                    f"AQM {name} out of range: {value!r}",
                    **{name: value, "aqm": type(self.aqm).__name__},
                )
