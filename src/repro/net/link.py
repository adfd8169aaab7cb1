"""Serializing bottleneck link.

Drains an :class:`~repro.net.queue.AQMQueue` at a configurable bit rate and
hands each packet to a downstream sink after its serialization time plus a
fixed propagation delay.  Utilization accounting (busy time and delivered
bytes per sampling window) feeds Figure 18.

The rate may be changed mid-simulation (:meth:`Link.set_capacity`), which
is how the Figure 12 varying-link-capacity experiment (100:20:100 Mb/s) is
driven; a rate change takes effect from the next packet, as with a real
shaper reconfiguration.

Event batching
--------------
A busy link is the simulator's hot path: with one heap event per
transmission completion, a saturated 100 Mb/s bottleneck costs ~8600
push/pop round-trips per simulated second before any TCP or AQM work
happens.  When ``batching`` is enabled (the default) the link instead
drains back-to-back transmissions *inside a single dispatch*: at each
transmission-complete callback it keeps dequeuing and "serializing" the
next packet inline — computing consecutive completion times and advancing
the simulator clock via :meth:`~repro.sim.engine.Simulator.advance_to` —
for as long as

* the queue is non-empty and the link is up,
* the next completion sorts strictly before every foreign pending event
  (:meth:`~repro.sim.engine.Simulator.pending_before`), and
* the next completion does not pass the run's ``until`` bound
  (:attr:`~repro.sim.engine.Simulator.horizon`).

Only the batch-terminating completion is scheduled as a real event.
Because the batch stops the moment any other event could fire, the
callback order, every timestamp the queue/AQM/receivers observe, and all
floating-point arithmetic are identical to the unbatched schedule — a
fixed seed produces bit-exact ``digest()``-equal results either way, and
fault injection (a link flap or outage event) always lands *between*
batches, interrupting a drain exactly where the event-per-packet schedule
would have.

With a positive propagation delay the per-packet ``deliver`` callbacks
are coalesced the same way: deliveries accumulate on a delivery train
(one pending heap event, not one per packet) that drains inline through
consecutive — including same-timestamp — deliveries under the same
no-foreign-event rule.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Protocol, Tuple

from repro.net.packet import Packet
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from repro.units import BitsPerSecond, Seconds

__all__ = ["Link", "Sink"]


class Sink(Protocol):
    """Anything that can receive a packet from a link or pipe."""

    def deliver(self, packet: Packet) -> None: ...


class Link:
    """Point-to-point serializing link fed by a queue.

    Parameters
    ----------
    sim:
        Simulator instance.
    queue:
        The FIFO it drains; the link registers itself as the queue's
        wake-up callback so transmission restarts when a packet arrives
        into an empty queue.
    capacity_bps:
        Line rate in bits per second.
    sink:
        Downstream recipient of transmitted packets.
    prop_delay:
        One-way propagation delay in seconds appended after serialization.
    batching:
        Drain back-to-back transmissions in a single event dispatch (see
        module docstring).  Semantics are bit-exact either way; disable
        only for A/B measurement or debugging.
    """

    def __init__(
        self,
        sim: Simulator,
        queue: AQMQueue,
        capacity_bps: BitsPerSecond,
        sink: Optional[Sink] = None,
        prop_delay: Seconds = 0.0,
        batching: bool = True,
    ):
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        if prop_delay < 0:
            raise ValueError(f"propagation delay cannot be negative (got {prop_delay})")
        self.sim = sim
        self.queue = queue
        self.capacity_bps = capacity_bps
        self.sink = sink
        self.prop_delay = prop_delay
        self.batching = batching
        self.busy = False
        self.down = False
        self.outages = 0
        self.busy_time = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        #: Time the link last became busy / went idle — drives the
        #: idle-time read-out and keeps busy accounting auditable under
        #: batching (see :meth:`idle_time`).
        self._busy_since: Optional[float] = None
        self.idle_time = 0.0
        self._idle_since = sim.now
        #: Batching observability: dispatches that drained >1 packet,
        #: packets absorbed beyond the first, and the longest drain.
        self.batches = 0
        self.batched_packets = 0
        self.longest_batch = 1
        #: Outages that landed with a transmission (batched drain or
        #: single event) in flight: the flap interrupts the drain at its
        #: next break point, exactly as it would interrupt the
        #: event-per-packet schedule.
        self.interrupted_batches = 0
        self._in_batch = False
        #: Pending prop-delay deliveries: (time, seq, sink, packet) in
        #: ascending (time, seq) order, drained by a single pending
        #: stream-lane continuation.  Seqs are reserved at append time so
        #: tie-breaks match the unbatched per-delivery schedule exactly.
        self._train: Deque[Tuple[float, int, Sink, Packet]] = deque()
        self._train_pending = False
        self._route: Optional[Callable[[Packet], Sink]] = None
        queue.set_wakeup(self._on_queue_nonempty)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_capacity(self, capacity_bps: BitsPerSecond) -> None:
        """Change the line rate; also updates the queue's delay estimator."""
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps
        self.queue.estimator.set_capacity(capacity_bps)

    def set_router(self, route: Callable[[Packet], Sink]) -> None:
        """Install per-packet routing (used by the dumbbell topology to
        deliver each flow's packets to its own receiver-side pipe)."""
        self._route = route

    def set_down(self) -> None:
        """Take the link down (fault injection: an outage / flap window).

        A transmission already in progress completes — the bits are on the
        wire — but no new packet starts serializing until :meth:`set_up`.
        Arriving packets keep queuing (and tail-drop once the buffer
        fills), exactly as behind a dead interface.  If a batched drain is
        in flight, the drain stops at its next break point (the flap event
        itself forced the break), counted in :attr:`interrupted_batches`.
        Idempotent.
        """
        if not self.down:
            self.down = True
            self.outages += 1
            if self._in_batch or self.busy:
                # The outage landed with a transmission in flight: the
                # in-flight packet completes (bits on the wire) and the
                # drain — batched or not — stops right after it.
                self.interrupted_batches += 1

    def set_up(self) -> None:
        """Restore a downed link and resume draining the queue.  Idempotent."""
        if self.down:
            self.down = False
            if not self.busy:
                self._transmit_next()

    # ------------------------------------------------------------------
    # Utilization accounting
    # ------------------------------------------------------------------
    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of ``elapsed`` (default: sim time so far) spent serializing.

        ``busy_time`` integrates per-packet serialization times, so this
        is exact whether transmissions were dispatched one event each or
        drained in batches.
        """
        if elapsed is None:
            elapsed = self.sim.now
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def _mark_busy(self) -> None:
        if self._busy_since is None:
            self._busy_since = self.sim.now
            self.idle_time += self.sim.now - self._idle_since

    def _mark_idle(self) -> None:
        if self._busy_since is not None:
            self._busy_since = None
            self._idle_since = self.sim.now

    # ------------------------------------------------------------------
    # Transmission loop
    # ------------------------------------------------------------------
    def _on_queue_nonempty(self) -> None:
        if not self.busy and not self.down:
            self._transmit_next()

    def _transmit_next(self) -> None:
        """Start serializing the head-of-line packet (one heap event).

        This is the batch *seed*: it runs outside a transmission-complete
        dispatch (queue wake-up, link restoration), where other events
        scheduled for the current instant may still be pending, so the
        completion must go through the heap.  The drain loop in
        :meth:`_on_tx_complete` takes over from there.
        """
        if self.down:
            self.busy = False
            self._mark_idle()
            return
        packet = self.queue.dequeue()
        if packet is None:
            self.busy = False
            self._mark_idle()
            return
        self.busy = True
        self._mark_busy()
        tx_time = packet.size * 8.0 / self.capacity_bps
        self.busy_time += tx_time
        self.bytes_sent += packet.size
        self.packets_sent += 1
        sim = self.sim
        if self.batching:
            sim.stream_schedule(
                sim.now + tx_time, sim.reserve_seq(), self._on_tx_complete, packet
            )
        else:
            sim.schedule(tx_time, self._on_tx_complete, packet)

    def _on_tx_complete(self, packet: Packet) -> None:
        """Deliver ``packet`` and drain further back-to-back transmissions.

        Each loop iteration replays exactly one unbatched
        transmission-complete dispatch — deliver, then dequeue/account the
        next packet — but the next completion is handled inline (clock
        advanced, no heap traffic) whenever it provably precedes every
        other pending event.  See the module docstring for the invariant.
        """
        sim = self.sim
        drained = 1
        self._in_batch = True
        try:
            while True:
                self._deliver(packet)
                if self.down:
                    # An outage raised synchronously by a delivery
                    # callback: in-flight bits made it, nothing new starts.
                    self.busy = False
                    self._mark_idle()
                    break
                nxt = self.queue.dequeue()
                if nxt is None:
                    self.busy = False
                    self._mark_idle()
                    break
                tx_time = nxt.size * 8.0 / self.capacity_bps
                self.busy_time += tx_time
                self.bytes_sent += nxt.size
                self.packets_sent += 1
                complete_at = sim.now + tx_time
                # Reserve the completion event's seq exactly where the
                # unbatched path would schedule it, keeping the sequence
                # stream — and every same-timestamp tie-break — identical
                # in both modes.
                seq = sim.reserve_seq()
                horizon = sim.horizon
                if (
                    self.batching
                    and horizon is not None
                    and complete_at <= horizon
                    and not sim.pending_before(complete_at, seq)
                ):
                    sim.advance_to(complete_at)
                    packet = nxt
                    drained += 1
                    continue
                # An event intervenes (or no run horizon / batching off):
                # park this completion in the stream lane (batching) or
                # fall back to the per-packet schedule.
                if self.batching:
                    sim.stream_schedule(
                        complete_at, seq, self._on_tx_complete, nxt
                    )
                else:
                    sim.at_reserved(complete_at, seq, self._on_tx_complete, nxt)
                if drained > 1:
                    sim.note_batch_break()
                break
        finally:
            self._in_batch = False
        if drained > 1:
            self.batches += 1
            self.batched_packets += drained - 1
            if drained > self.longest_batch:
                self.longest_batch = drained

    def _deliver(self, packet: Packet) -> None:
        """Hand one serialized packet downstream at the current sim time."""
        sink = self._route(packet) if self._route is not None else self.sink
        if sink is None:
            return
        if self.prop_delay > 0:
            if self.batching:
                self._train_append(sink, packet)
            else:
                self.sim.schedule(self.prop_delay, sink.deliver, packet)
        else:
            sink.deliver(packet)

    # ------------------------------------------------------------------
    # Delivery train (prop-delay deliver coalescing)
    # ------------------------------------------------------------------
    def _train_append(self, sink: Sink, packet: Packet) -> None:
        """Queue one prop-delay delivery; one heap event serves the train.

        Completion times are non-decreasing, so appending keeps the train
        sorted.  The entry's seq is reserved now — where the unbatched
        path would schedule its ``deliver`` event — so the (time, seq)
        identity of each delivery is mode-independent.
        """
        sim = self.sim
        self._train.append(
            (sim.now + self.prop_delay, sim.reserve_seq(), sink, packet)
        )
        if not self._train_pending:
            due, seq, _, _ = self._train[0]
            sim.stream_schedule(due, seq, self._drain_train)
            self._train_pending = True

    def _drain_train(self) -> None:
        """Deliver the due train entry, then coalesce successors inline.

        Applies the same rule as the transmission drain: a successor is
        delivered inline only while its (due, seq) sorts strictly before
        every foreign pending event and within the run horizon; otherwise
        the remainder is rescheduled as one event carrying the head
        entry's reserved seq — exactly the unbatched delivery event.
        """
        sim = self.sim
        train = self._train
        horizon = sim.horizon
        delivered = 0
        while train:
            due, seq, sink, packet = train[0]
            if delivered:
                # Foreign-event check, lexicographic on (time, seq):
                # train entries carry old reserved seqs, so a
                # same-timestamp foreign event may sort either way.
                if horizon is None or due > horizon:
                    break
                if sim.pending_before(due, seq):
                    sim.note_batch_break()
                    break
                sim.advance_to(due)
            train.popleft()
            delivered += 1
            sink.deliver(packet)
        if train:
            due, seq, _, _ = train[0]
            sim.stream_schedule(due, seq, self._drain_train)
            self._train_pending = True
        else:
            self._train_pending = False

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def register_metrics(self, registry: object) -> None:
        """Register the link's counters under the ``link.`` prefix.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`
        (duck-typed so the net layer never imports the observability
        layer); the provider runs at snapshot time, exporting end-of-run
        totals.
        """
        registry.register_provider("link", self._metrics_snapshot)  # type: ignore[attr-defined]

    def _metrics_snapshot(self) -> dict:
        """Flat metric values: throughput, batching and outage counters."""
        return {
            "capacity_bps": self.capacity_bps,
            "bytes_sent": self.bytes_sent,
            "packets_sent": self.packets_sent,
            "busy_time": self.busy_time,
            "idle_time": self.idle_time,
            "batches": self.batches,
            "batched_packets": self.batched_packets,
            "longest_batch": self.longest_batch,
            "interrupted_batches": self.interrupted_batches,
            "outages": self.outages,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.down else ("busy" if self.busy else "idle")
        return f"<Link {self.capacity_bps / 1e6:.1f}Mbps {state}>"
