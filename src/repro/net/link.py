"""Serializing bottleneck link.

Drains an :class:`~repro.net.queue.AQMQueue` at a configurable bit rate and
hands each packet on after its serialization time to its flow's entry in
:attr:`Link.routes`.  A flow with no route (UDP, which has no receiver)
ends at the link, whose :attr:`~Link.bytes_sent` and
:attr:`~Link.packets_sent` have already counted it.  Utilization
accounting (busy time and delivered bytes per sampling window) feeds
Figure 18.

The rate may be changed mid-simulation (:meth:`Link.set_capacity`), which
is how the Figure 12 varying-link-capacity experiment (100:20:100 Mb/s) is
driven; a rate change takes effect from the next packet, as with a real
shaper reconfiguration.

Events
------
A busy link is the simulator's hot path: a saturated 100 Mb/s
bottleneck completes ~8600 transmissions per simulated second before any
TCP or AQM work happens.  Each completion, and each routed packet's
hop to its receiver, is one uncancellable ``(time, seq, fn, args)`` entry
that the link pushes onto the engine's heap itself (the engine
contract: :attr:`~repro.sim.engine.Simulator.heap`), with no
:meth:`~repro.sim.engine.Simulator.post` frame.  The completion event is
:meth:`Link._transmit_next` itself, pushed with the finished packet: it
hands that packet on and starts the next one in the same call.  A
route is a ``(delay, deliver)`` pair, registered through
:meth:`Link.add_route`, which checks the delay; at completion the link
pushes ``deliver(packet)`` ``delay`` seconds out, drawing its seq where
the post did, so the dumbbell's data packet reaches its receiver with
no forwarding frame in between.  Both delays are checked where they
enter, so the pushes need no check of their own: the serialization
time through the capacity (here) and the packet size
(:class:`~repro.net.packet.Packet`), the route's delay in
:meth:`Link.add_route`.  A fault (a link flap or outage) is an ordinary
event that lands between two completions: the in-flight packet finishes
and nothing new starts until the link comes back up.
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import Callable, Dict, Optional, Tuple

from repro.net.packet import Packet
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from repro.units import BitsPerSecond, Seconds

__all__ = ["Link"]


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
    """

    def __init__(self, sim: Simulator, queue: AQMQueue, capacity_bps: BitsPerSecond):
        # ``not x > 0`` also rejects NaN, which no comparison orders.
        if not capacity_bps > 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.sim = sim
        self.queue = queue
        self.capacity_bps = capacity_bps
        self.busy = False
        self.down = False
        self.outages = 0
        self.busy_time = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        #: Time the link last became busy / went idle — drives
        #: :attr:`idle_time`.
        self._busy_since: Optional[float] = None
        self.idle_time = 0.0
        self._idle_since = sim.now
        #: Per-flow delivery, ``flow_id -> (delay, deliver)``, written by
        #: :meth:`add_route`: at transmission completion the link pushes
        #: ``deliver(packet)`` ``delay`` seconds out.
        self.routes: Dict[int, Tuple[float, Callable[[Packet], None]]] = {}
        # The engine's heap and seq handles (never rebound).
        self._heap = sim.heap
        self._seq = sim.seq
        # The completion event, bound once rather than per push.
        self._completion = self._transmit_next
        queue.set_wakeup(self._on_queue_nonempty)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_route(
        self, flow_id: int, delay: Seconds, deliver: Callable[[Packet], None]
    ) -> None:
        """Hand each packet of ``flow_id`` to ``deliver`` ``delay``
        seconds after its transmission completes.

        The delay is checked here because the completion pushes the
        delivery onto the engine's heap with no check of its own.
        """
        # Also rejects NaN, which no comparison orders, and an infinite
        # delay, after which no packet of the flow would ever arrive.
        if not 0 <= delay < inf:
            raise ValueError(
                f"route delay must be non-negative and finite (got {delay})"
            )
        self.routes[flow_id] = (delay, deliver)

    def set_capacity(self, capacity_bps: BitsPerSecond) -> None:
        """Change the line rate; also updates the queue's delay estimate."""
        if not capacity_bps > 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps
        self.queue.set_capacity(capacity_bps)

    def set_down(self) -> None:
        """Take the link down (fault injection: an outage / flap window).

        A transmission already in progress completes — the bits are on the
        wire — but no new packet starts serializing until :meth:`set_up`.
        Arriving packets keep queuing (and tail-drop once the buffer
        fills), exactly as behind a dead interface.  Idempotent.
        """
        if not self.down:
            self.down = True
            self.outages += 1

    def set_up(self) -> None:
        """Restore a downed link and resume draining the queue.  Idempotent."""
        if self.down:
            self.down = False
            if not self.busy:
                self._transmit_next()

    # ------------------------------------------------------------------
    # Transmission loop
    # ------------------------------------------------------------------
    def _on_queue_nonempty(self) -> None:
        if not self.busy and not self.down:
            self._transmit_next()

    def _transmit_next(self, sent: Optional[Packet] = None) -> None:
        """Hand ``sent`` to its flow's route, if it has one, then start
        serializing the head-of-line packet, if the link may.

        Each transmission's completion is this call, pushed with the
        finished packet as ``sent``; a queue wake-up and link restoration
        call it with no packet.  Both pushes are the entry
        :meth:`~repro.sim.engine.Simulator.post` would push, at the
        point it would draw its seq.
        """
        now = self.sim.now
        if sent is not None:
            route = self.routes.get(sent.flow_id)
            if route is not None:
                delay, deliver = route
                heappush(self._heap, (now + delay, next(self._seq), deliver, (sent,)))
        packet = None if self.down else self.queue.dequeue()
        if packet is None:
            self.busy = False
            if self._busy_since is not None:
                self._busy_since = None
                self._idle_since = now
            return
        self.busy = True
        if self._busy_since is None:
            self._busy_since = now
            self.idle_time += now - self._idle_since
        size = packet.size
        tx_time = size * 8.0 / self.capacity_bps
        self.busy_time += tx_time
        self.bytes_sent += size
        self.packets_sent += 1
        heappush(
            self._heap,
            (now + tx_time, next(self._seq), self._completion, (packet,)),
        )

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
        """Flat metric values: throughput, busy/idle and outage counters."""
        return {
            "capacity_bps": self.capacity_bps,
            "bytes_sent": self.bytes_sent,
            "packets_sent": self.packets_sent,
            "busy_time": self.busy_time,
            "idle_time": self.idle_time,
            "outages": self.outages,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.down else ("busy" if self.busy else "idle")
        return f"<Link {self.capacity_bps / 1e6:.1f}Mbps {state}>"
