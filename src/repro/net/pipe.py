"""Fixed-delay, infinite-capacity path segments.

A :class:`Pipe` models the uncongested parts of the paper's testbed paths:
the per-flow netem delay that sets each flow's base RTT, and the reverse
(ACK) path, which the testbed keeps uncongested.  Packets are delivered to
the sink exactly ``delay`` seconds after entering; ordering is preserved
because arrivals are served in (time, seq) order whether they sit on the
event heap or on the pipe's arrival train.

Arrival train (event batching)
------------------------------
A pipe holds ``rate x delay`` packets in flight — hundreds per flow at
paper-scale bandwidth-delay products — and the naive one-heap-event-per-
packet schedule makes those in-flight packets the bulk of the simulator's
heap, taxing *every* push/pop.  When ``batching`` is enabled (the
default) in-flight packets instead sit on a per-pipe FIFO *train* of
``(due, seq, packet)`` entries served by a single pending heap event.
Each drain dispatch delivers its due entry, then keeps delivering
consecutive entries inline — advancing the clock via
:meth:`~repro.sim.engine.Simulator.advance_to` — for as long as the next
entry's ``(due, seq)`` sorts strictly before the next foreign heap event
and within the run horizon; otherwise one continuation event is
scheduled *with the entry's reserved seq*, which is exactly the event the
unbatched pipe would have scheduled.  Sequence numbers are reserved at
``deliver()`` time (:meth:`~repro.sim.engine.Simulator.reserve_seq`), so
the (time, seq) identity of every arrival is identical with batching on
or off and results are bit-exact either way.

:class:`DropPipe` is the shared base for pipes that discard packets on the
way through; :class:`LossyPipe` (independent Bernoulli loss) lives here,
and the adverse-path family — Gilbert–Elliott bursty loss, corruption,
reordering, duplication — lives in :mod:`repro.net.faults`.  Pipes that
perturb a packet's delay (reordering's ``extra_delay``, duplication's
``dup_gap``) schedule those perturbed arrivals as ordinary heap events —
the train stays sorted because it only ever carries base-delay arrivals.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional, Tuple

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
    batching:
        Keep in-flight packets on the arrival train (one pending heap
        event per pipe) instead of one heap event each.  Bit-exact
        either way; disable only for A/B measurement or debugging.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: Optional[Sink] = None,
        batching: bool = True,
    ):
        if delay < 0:
            raise ValueError(f"delay cannot be negative (got {delay})")
        self.sim = sim
        self.delay = delay
        self.sink = sink
        self.batching = batching
        self.delivered = 0
        #: In-flight arrivals, ascending (due, seq): constant base delay
        #: and a monotonic clock keep appends sorted.  One stream-lane
        #: continuation is pending whenever the train is non-empty.
        self._train: Deque[Tuple[float, int, Packet]] = deque()
        self._train_pending = False

    def deliver(self, packet: Packet) -> None:
        if self.sink is None:
            raise RuntimeError("pipe has no sink connected")
        self._schedule_arrival(packet)

    def _schedule_arrival(self, packet: Packet, extra_delay: float = 0.0) -> None:
        delay = self.delay + extra_delay
        if delay <= 0:
            self._arrive(packet)
            return
        if self.batching and extra_delay == 0.0:
            sim = self.sim
            # Reserve the seq the unbatched schedule() would consume here,
            # so tie-breaks are identical whether this arrival rides the
            # train or (after a batch break) goes on the heap itself.
            self._train.append((sim.now + delay, sim.reserve_seq(), packet))
            if not self._train_pending:
                due, seq, _ = self._train[0]
                sim.stream_schedule(due, seq, self._drain)
                self._train_pending = True
        else:
            self.sim.schedule(delay, self._arrive, packet)

    def _drain(self) -> None:
        """Deliver the due train entry, then coalesce successors inline.

        Each inline delivery absorbs what would have been one heap event;
        the first entry is the dispatch itself and always delivers.  The
        remainder (if an event intervenes, the horizon ends, or batching
        is interrogated outside ``run``) is rescheduled as one event
        carrying the head entry's reserved seq.
        """
        sim = self.sim
        train = self._train
        horizon = sim.horizon
        delivered = 0
        while train:
            due, seq, packet = train[0]
            if delivered:
                # Foreign-event check: deliver inline only while (due,
                # seq) sorts strictly before every pending event.
                if horizon is None or due > horizon:
                    break
                if sim.pending_before(due, seq):
                    sim.note_batch_break()
                    break
                sim.advance_to(due)
            train.popleft()
            delivered += 1
            self._arrive(packet)
        if train:
            due, seq, _ = train[0]
            sim.stream_schedule(due, seq, self._drain)
            self._train_pending = True
        else:
            self._train_pending = False

    def _arrive(self, packet: Packet) -> None:
        self.delivered += 1
        self.sink.deliver(packet)

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
        batching: bool = True,
    ):
        super().__init__(sim, delay, sink, batching=batching)
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
        batching: bool = True,
    ):
        super().__init__(sim, delay, sink, batching=batching)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss probability must be in [0,1] (got {loss})")
        self.loss = loss
        self.rng = rng

    def _should_drop(self, packet: Packet) -> bool:
        return self.loss > 0 and self.rng.random() < self.loss
