"""Fixed-delay, infinite-capacity path segments for hand-built paths.

A :class:`Pipe` delivers packets to its sink exactly ``delay`` seconds
after they enter; each arrival is one
:meth:`~repro.sim.engine.Simulator.post` of the sink's ``deliver``, and
ordering is preserved because the engine pops same-delay arrivals in
(time, seq) order.  The dumbbell does not use pipes: its fixed per-flow
delays (the testbed's netem delay and uncongested ACK path) are posts
straight to the next hop.  Pipes serve paths built by hand around a
sender and receiver, chiefly the TCP robustness rigs, which swap in a
lossy, reordering or duplicating segment.

:class:`DropPipe` is the shared base for pipes that discard packets on the
way through; :class:`LossyPipe` (independent Bernoulli loss) lives here,
and the adverse-path family — Gilbert–Elliott bursty loss, corruption,
reordering, duplication — lives in :mod:`repro.net.faults`.  Pipes that
perturb a packet's delay (reordering's ``extra_delay``, duplication's
``dup_gap``) post those arrivals with the extra delay added.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.link import Sink
from repro.net.packet import Packet
from repro.sim.engine import Simulator

__all__ = ["Pipe", "DropPipe", "LossyPipe"]


class Pipe:
    """Deliver packets to ``sink`` after a fixed delay.

    Parameters
    ----------
    sim:
        Simulator instance.
    delay:
        One-way delay in seconds (0 delivers synchronously).
    sink:
        Downstream recipient; may be attached after construction.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: Optional[Sink] = None,
    ):
        if not delay >= 0:  # also rejects NaN, which no comparison orders
            raise ValueError(f"delay cannot be negative (got {delay})")
        self.sim = sim
        self.delay = delay
        self.sink = sink

    def deliver(self, packet: Packet) -> None:
        if self.sink is None:
            raise RuntimeError("pipe has no sink connected")
        self._schedule_arrival(packet)

    def _schedule_arrival(self, packet: Packet, extra_delay: float = 0.0) -> None:
        """Deliver after the base delay plus ``extra_delay`` (the adverse
        pipes' reordering and duplication gaps)."""
        delay = self.delay + extra_delay
        if delay <= 0:
            self.sink.deliver(packet)
        else:
            self.sim.post(delay, self.sink.deliver, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Pipe delay={self.delay * 1e3:.2f}ms>"


class DropPipe(Pipe):
    """A pipe that may discard packets; subclasses decide which.

    Subclasses override :meth:`_should_drop`; dropped packets are counted
    in :attr:`lost` and never reach the sink.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: Optional[Sink] = None,
    ):
        super().__init__(sim, delay, sink)
        self.lost = 0

    def _should_drop(self, packet: Packet) -> bool:
        raise NotImplementedError

    def deliver(self, packet: Packet) -> None:
        if self._should_drop(packet):
            self.lost += 1
            return
        super().deliver(packet)


class LossyPipe(DropPipe):
    """A pipe that independently drops each packet with probability ``loss``."""

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        loss: float,
        rng: random.Random,
        sink: Optional[Sink] = None,
    ):
        super().__init__(sim, delay, sink)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss probability must be in [0,1] (got {loss})")
        self.loss = loss
        self.rng = rng

    def _should_drop(self, packet: Packet) -> bool:
        return self.loss > 0 and self.rng.random() < self.loss
