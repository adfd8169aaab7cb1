"""Fault injection: adverse-path pipes and scriptable fault schedules.

The paper's stability experiments (Figures 11–13) are claims about AQM
behaviour under adverse, *changing* conditions — traffic bursts, capacity
collapses, regime changes.  This module provides the machinery to push the
reproduction well beyond clean paths:

**Adverse-path pipes** (drop-in replacements for :class:`~repro.net.pipe.Pipe`
on a flow's forward or reverse path):

* :class:`GilbertElliottPipe` — bursty loss from the classic two-state
  Gilbert–Elliott Markov model (:class:`GilbertElliottLoss`), the standard
  way to model correlated wireless/line errors rather than independent
  Bernoulli coin flips;
* :class:`ReorderingPipe` — a fraction of packets are held back for an
  extra delay so later packets overtake them (netem's ``reorder``);
* :class:`DuplicatingPipe` — a fraction of packets are delivered twice.

**Scriptable fault schedules** (declarative dataclasses handed to
``Experiment(faults=[...])`` and wired into the dumbbell by
:class:`FaultInjector`):

* :class:`LinkFlapFault` — bottleneck outage windows, optionally repeating;
* :class:`BurstLossFault` — a Gilbert–Elliott loss regime at the
  bottleneck ingress for a time window;
* :class:`CorruptionFault` — random corruption at the bottleneck ingress;
* :class:`AqmStallFault` — the AQM update timer stops firing for a window
  (a starved qdisc work item), controller state preserved;
* :class:`AqmTimerJitterFault` — update firings drift late by a random
  amount (a loaded softirq), stressing the controller's tolerance to a
  mis-paced ``T``.

Every injector activation/deactivation is recorded on the injector's
:attr:`~FaultInjector.timeline` with its virtual time, so a run's fault
history can be reported next to its results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.net.pipe import DropPipe, Pipe
from repro.sim.engine import Simulator

__all__ = [
    "GilbertElliottLoss",
    "GilbertElliottPipe",
    "ReorderingPipe",
    "DuplicatingPipe",
    "Fault",
    "LinkFlapFault",
    "BurstLossFault",
    "CorruptionFault",
    "AqmStallFault",
    "AqmTimerJitterFault",
    "FaultInjector",
    "parse_fault_spec",
    "FAULT_SPEC_HELP",
]


# ----------------------------------------------------------------------
# Gilbert–Elliott loss model
# ----------------------------------------------------------------------
class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) packet-loss process.

    The channel is either *good* or *bad*; each packet first advances the
    state (``p_good_to_bad`` / ``p_bad_to_good`` transition probabilities)
    and is then lost with the state's loss probability (defaults: the
    classic Gilbert model — lossless good state, always-lossy bad state).
    Bad-state sojourns are geometric with mean ``1 / p_bad_to_good``
    packets, which is what produces loss *bursts*.

    Use :meth:`from_rates` to parameterize by the two quantities people
    actually measure: overall loss rate and mean burst length.
    """

    def __init__(
        self,
        rng: random.Random,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0,1] (got {value})")
        self.rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.in_bad = False
        self.transitions = 0

    @classmethod
    def from_rates(
        cls,
        rng: random.Random,
        loss_rate: float,
        mean_burst: float,
    ) -> "GilbertElliottLoss":
        """Build a Gilbert model from target loss rate and mean burst length.

        With a lossless good state and an always-lossy bad state, the
        stationary bad-state occupancy *is* the loss rate:
        ``π_bad = p_gb / (p_gb + p_bg)``, and the mean burst length is
        ``1 / p_bg`` packets.
        """
        if not 0.0 < loss_rate < 1.0:
            raise ConfigError(f"loss_rate must be in (0,1) (got {loss_rate})")
        if mean_burst < 1.0:
            raise ConfigError(f"mean_burst must be >= 1 packet (got {mean_burst})")
        p_bg = 1.0 / mean_burst
        p_gb = loss_rate * p_bg / (1.0 - loss_rate)
        if p_gb > 1.0:
            raise ConfigError(
                f"loss_rate={loss_rate} with mean_burst={mean_burst} is "
                f"unreachable (good->bad probability {p_gb:.3f} > 1)"
            )
        return cls(rng, p_gb, p_bg)

    def should_drop(self) -> bool:
        """Advance the channel state for one packet and decide its fate."""
        if self.in_bad:
            if self.rng.random() < self.p_bad_to_good:
                self.in_bad = False
                self.transitions += 1
        else:
            if self.rng.random() < self.p_good_to_bad:
                self.in_bad = True
                self.transitions += 1
        loss = self.loss_bad if self.in_bad else self.loss_good
        return loss > 0 and self.rng.random() < loss


# ----------------------------------------------------------------------
# Adverse-path pipes
# ----------------------------------------------------------------------
class GilbertElliottPipe(DropPipe):
    """A pipe whose losses follow a Gilbert–Elliott bursty process."""

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        model: GilbertElliottLoss,
        sink=None,
    ):
        super().__init__(sim, delay, sink)
        self.model = model

    def _should_drop(self, packet: Packet) -> bool:
        return self.model.should_drop()


class ReorderingPipe(Pipe):
    """A pipe that reorders a fraction of packets.

    Each packet is independently selected with probability ``reorder``;
    selected packets incur ``extra_delay`` seconds on top of the base
    delay, so any packet entering less than ``extra_delay`` behind
    overtakes them — netem's ``delay ... reorder`` semantics.  With a
    large enough ``extra_delay`` this forces spurious duplicate ACKs and
    exercises fast-retransmit false sharing.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        reorder: float,
        extra_delay: float,
        rng: random.Random,
        sink=None,
    ):
        super().__init__(sim, delay, sink)
        if not 0.0 <= reorder <= 1.0:
            raise ConfigError(f"reorder probability must be in [0,1] (got {reorder})")
        if extra_delay <= 0:
            raise ConfigError(f"extra_delay must be positive (got {extra_delay})")
        self.reorder = reorder
        self.extra_delay = extra_delay
        self.rng = rng
        self.reordered = 0

    def deliver(self, packet: Packet) -> None:
        if self.sink is None:
            raise RuntimeError("pipe has no sink connected")
        if self.reorder > 0 and self.rng.random() < self.reorder:
            self.reordered += 1
            self._schedule_arrival(packet, extra_delay=self.extra_delay)
        else:
            self._schedule_arrival(packet)


class DuplicatingPipe(Pipe):
    """A pipe that delivers a fraction of packets twice.

    The duplicate arrives ``dup_gap`` seconds after the original (0 means
    back-to-back).  Receivers must treat the copy as a stale segment/ACK;
    senders must not double-count it — exactly the machinery duplication
    faults in real networks exercise.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        duplicate: float,
        rng: random.Random,
        dup_gap: float = 0.0,
        sink=None,
    ):
        super().__init__(sim, delay, sink)
        if not 0.0 <= duplicate <= 1.0:
            raise ConfigError(
                f"duplication probability must be in [0,1] (got {duplicate})"
            )
        if dup_gap < 0:
            raise ConfigError(f"dup_gap cannot be negative (got {dup_gap})")
        self.duplicate = duplicate
        self.dup_gap = dup_gap
        self.rng = rng
        self.duplicated = 0

    def deliver(self, packet: Packet) -> None:
        if self.sink is None:
            raise RuntimeError("pipe has no sink connected")
        self._schedule_arrival(packet)
        if self.duplicate > 0 and self.rng.random() < self.duplicate:
            self.duplicated += 1
            self._schedule_arrival(packet, extra_delay=self.dup_gap)


# ----------------------------------------------------------------------
# Declarative fault schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fault:
    """Base class: a fault active over ``[start, start + duration)``."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigError(f"fault start cannot be negative (got {self.start})")
        if self.duration <= 0:
            raise ConfigError(f"fault duration must be positive (got {self.duration})")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class LinkFlapFault(Fault):
    """Bottleneck outage of ``duration`` seconds starting at ``start``.

    With ``repeat_every`` set, the outage recurs ``count`` times at that
    period — a flapping interface rather than a single cut.
    """

    repeat_every: Optional[float] = None
    count: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.count < 1:
            raise ConfigError(f"count must be >= 1 (got {self.count})")
        if self.repeat_every is None:
            if self.count > 1:
                raise ConfigError("count > 1 requires repeat_every")
        elif self.repeat_every <= self.duration:
            raise ConfigError(
                f"repeat_every ({self.repeat_every}) must exceed the outage "
                f"duration ({self.duration})"
            )

    @property
    def end(self) -> float:
        periods = (self.count - 1) * (self.repeat_every or 0.0)
        return self.start + periods + self.duration

    def windows(self) -> List[Tuple[float, float]]:
        step = self.repeat_every or 0.0
        return [
            (self.start + k * step, self.start + k * step + self.duration)
            for k in range(self.count)
        ]


@dataclass(frozen=True)
class BurstLossFault(Fault):
    """Gilbert–Elliott bursty loss at the bottleneck ingress for a window."""

    loss_rate: float = 0.05
    mean_burst: float = 8.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.loss_rate < 1.0:
            raise ConfigError(f"loss_rate must be in (0,1) (got {self.loss_rate})")
        if self.mean_burst < 1.0:
            raise ConfigError(f"mean_burst must be >= 1 (got {self.mean_burst})")


@dataclass(frozen=True)
class CorruptionFault(Fault):
    """Independent per-packet corruption at the bottleneck ingress."""

    probability: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ConfigError(
                f"corruption probability must be in (0,1] (got {self.probability})"
            )


@dataclass(frozen=True)
class AqmStallFault(Fault):
    """The AQM's periodic update timer stops firing for the window."""


@dataclass(frozen=True)
class AqmTimerJitterFault(Fault):
    """AQM update firings drift late by Uniform(0, ``max_jitter``) seconds."""

    max_jitter: float = 0.016

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_jitter <= 0:
            raise ConfigError(f"max_jitter must be positive (got {self.max_jitter})")


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Wires a declarative fault list into a live topology.

    Parameters
    ----------
    sim:
        The driving simulator (activation/deactivation are its events).
    rng:
        Random stream for the stochastic faults (its own named stream so
        fault randomness never perturbs flow or AQM randomness).
    link:
        The bottleneck :class:`~repro.net.link.Link` (flap target).
    queue:
        The bottleneck :class:`~repro.net.queue.AQMQueue` (loss/corruption
        gate target).
    aqm:
        The AQM under test (stall/jitter target); may be ``None``.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        link=None,
        queue=None,
        aqm=None,
    ):
        self.sim = sim
        self.rng = rng
        self.link = link
        self.queue = queue
        self.aqm = aqm
        #: (virtual time, human-readable event) pairs, in firing order.
        self.timeline: List[Tuple[float, str]] = []
        self.faults: List[Fault] = []
        self._gates: List[Callable[[Packet], bool]] = []

    # -- wiring ---------------------------------------------------------
    def install(self, faults) -> None:
        """Schedule every fault's activation and deactivation events."""
        for fault in faults:
            self.faults.append(fault)
            if isinstance(fault, LinkFlapFault):
                self._install_flap(fault)
            elif isinstance(fault, BurstLossFault):
                self._install_burst_loss(fault)
            elif isinstance(fault, CorruptionFault):
                self._install_corruption(fault)
            elif isinstance(fault, AqmStallFault):
                self._install_stall(fault)
            elif isinstance(fault, AqmTimerJitterFault):
                self._install_jitter(fault)
            else:
                raise ConfigError(f"unknown fault type {type(fault).__name__}")

    def _log(self, message: str) -> None:
        self.timeline.append((self.sim.now, message))

    def _require(self, attr: str, fault: Fault):
        target = getattr(self, attr)
        if target is None:
            raise ConfigError(
                f"{type(fault).__name__} needs a {attr!r} target, but the "
                f"injector was built without one"
            )
        return target

    # -- link flap -------------------------------------------------------
    def _install_flap(self, fault: LinkFlapFault) -> None:
        link = self._require("link", fault)

        def down() -> None:
            link.set_down()
            self._log("link down")

        def up() -> None:
            link.set_up()
            self._log("link up")

        for window_start, window_end in fault.windows():
            self.sim.at(window_start, down)
            self.sim.at(window_end, up)

    # -- bottleneck ingress gates -----------------------------------------
    def _gate_dispatch(self, packet: Packet) -> bool:
        return any(gate(packet) for gate in self._gates)

    def _install_gate_window(
        self, fault: Fault, gate: Callable[[Packet], bool], label: str
    ) -> None:
        queue = self._require("queue", fault)

        def activate() -> None:
            if not self._gates:
                queue.set_ingress_fault(self._gate_dispatch)
            self._gates.append(gate)
            self._log(f"{label} on")

        def deactivate() -> None:
            self._gates.remove(gate)
            if not self._gates:
                queue.set_ingress_fault(None)
            self._log(f"{label} off")

        self.sim.at(fault.start, activate)
        self.sim.at(fault.end, deactivate)

    def _install_burst_loss(self, fault: BurstLossFault) -> None:
        model = GilbertElliottLoss.from_rates(
            self.rng, fault.loss_rate, fault.mean_burst
        )
        self._install_gate_window(
            fault,
            lambda packet: model.should_drop(),
            f"burst loss (rate={fault.loss_rate}, burst={fault.mean_burst})",
        )

    def _install_corruption(self, fault: CorruptionFault) -> None:
        self._install_gate_window(
            fault,
            lambda packet: self.rng.random() < fault.probability,
            f"corruption (p={fault.probability})",
        )

    # -- AQM timer faults ---------------------------------------------------
    def _install_stall(self, fault: AqmStallFault) -> None:
        aqm = self._require("aqm", fault)

        def stall() -> None:
            aqm.pause_updates()
            self._log("AQM updates stalled")

        def resume() -> None:
            aqm.resume_updates()
            self._log("AQM updates resumed")

        self.sim.at(fault.start, stall)
        self.sim.at(fault.end, resume)

    def _install_jitter(self, fault: AqmTimerJitterFault) -> None:
        aqm = self._require("aqm", fault)

        def enable() -> None:
            timer = aqm.update_timer
            if timer is not None:
                timer.set_jitter(lambda: self.rng.uniform(0.0, fault.max_jitter))
            self._log(f"AQM timer jitter on (max={fault.max_jitter * 1e3:.0f}ms)")

        def disable() -> None:
            timer = aqm.update_timer
            if timer is not None:
                timer.set_jitter(None)
            self._log("AQM timer jitter off")

        self.sim.at(fault.start, enable)
        self.sim.at(fault.end, disable)


# ----------------------------------------------------------------------
# CLI fault-spec mini-language
# ----------------------------------------------------------------------
FAULT_SPEC_HELP = (
    "fault spec: KIND:START:DURATION[:EXTRA...] — "
    "flap:START:DUR[:REPEAT_EVERY[:COUNT]], "
    "burstloss:START:DUR[:LOSS_RATE[:MEAN_BURST]], "
    "corrupt:START:DUR[:PROB], "
    "stall:START:DUR, "
    "jitter:START:DUR[:MAX_JITTER]"
)


def parse_fault_spec(spec: str) -> Fault:
    """Parse one ``--fault`` command-line spec into a fault object.

    Examples: ``flap:30:2``, ``flap:30:2:20:3`` (three 2 s outages 20 s
    apart), ``burstloss:10:15:0.05:8``, ``stall:5:3``, ``jitter:5:10:0.02``.
    """
    parts = spec.split(":")
    kind = parts[0].strip().lower()
    try:
        numbers = [float(part) for part in parts[1:]]
    except ValueError as exc:
        raise ConfigError(f"bad fault spec {spec!r}: {exc}") from None
    if len(numbers) < 2:
        raise ConfigError(
            f"bad fault spec {spec!r}: need at least KIND:START:DURATION"
        )
    start, duration, extra = numbers[0], numbers[1], numbers[2:]

    def at_most(n: int) -> None:
        if len(extra) > n:
            raise ConfigError(f"bad fault spec {spec!r}: too many fields")

    if kind == "flap":
        at_most(2)
        repeat = extra[0] if len(extra) >= 1 else None
        count = int(extra[1]) if len(extra) >= 2 else (1 if repeat is None else 2)
        return LinkFlapFault(start, duration, repeat_every=repeat, count=count)
    if kind == "burstloss":
        at_most(2)
        return BurstLossFault(
            start,
            duration,
            loss_rate=extra[0] if len(extra) >= 1 else 0.05,
            mean_burst=extra[1] if len(extra) >= 2 else 8.0,
        )
    if kind == "corrupt":
        at_most(1)
        return CorruptionFault(
            start, duration, probability=extra[0] if extra else 0.01
        )
    if kind == "stall":
        at_most(0)
        return AqmStallFault(start, duration)
    if kind == "jitter":
        at_most(1)
        return AqmTimerJitterFault(
            start, duration, max_jitter=extra[0] if extra else 0.016
        )
    raise ConfigError(f"unknown fault kind {kind!r} in spec {spec!r}")
