"""DualQ Coupled AQM — the paper's stated deployment goal (extension).

The paper repeatedly emphasizes that the single-queue coupled PI+PI2
arrangement it evaluates "is only a step in the research process, not a
recommended deployment": the recommended structure puts Scalable traffic
in its own shallow-latency queue, *coupled* to the Classic queue's AQM
([12, 13]; later standardized as RFC 9332 'DualPI2').  This module
implements that DualQ structure so the repository also covers the paper's
forward pointer:

* two FIFOs behind one link — **L** (Scalable: ECT(1)/CE) and **C**
  (Classic: ECT(0)/Not-ECT);
* one PI controller on the **Classic** queue delay producing ``p'``;
  Classic packets are dropped/marked with ``p'²`` (PI2) and the coupled
  Scalable probability is ``p_CL = k·p'``;
* the L queue additionally applies an immediate shallow-threshold mark on
  its own sojourn time (the native L4S signal); the applied L probability
  is ``max(p_CL, native)``;
* a time-shifted priority scheduler: L is served first unless the Classic
  head-of-line packet has waited ``tshift`` longer than the L head, which
  bounds Classic starvation.

Because the DualQ owns two FIFOs and the scheduling decision, it
implements the *queue-side* interface (`enqueue` / `dequeue` /
`set_wakeup` / `byte_length`) that :class:`repro.net.link.Link` drains,
rather than the per-packet AQM hook.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Optional

from repro.aqm.base import clamp_unit
from repro.aqm.pi import PIController
from repro.core.coupling import K_DEPLOYED
from repro.net.packet import Packet
from repro.net.queue import QueueStats
from repro.sim.engine import Simulator
from repro.sim.random import default_stream

__all__ = ["DualQueueCoupledAqm"]


class DualQueueCoupledAqm:
    """Link-drainable dual queue with coupled PI2 AQM.

    Parameters
    ----------
    sim, capacity_bps, buffer_packets:
        As for :class:`repro.net.queue.AQMQueue` (the buffer limit is
        shared across both queues).
    alpha, beta, target_delay, update_interval:
        The Classic-side PI controller (PI2 gains).
    k:
        Coupling factor between Classic ``p'`` and L marking.
    l_threshold:
        Native L4S shallow marking threshold on L sojourn time (1 ms).
    tshift:
        Time-shift for the priority scheduler: the Classic head is served
        when it has waited this much longer than the L head.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        buffer_packets: int = 40_000,
        alpha: float = 0.3125,
        beta: float = 3.125,
        target_delay: float = 0.020,
        update_interval: float = 0.032,
        k: float = K_DEPLOYED,
        l_threshold: float = 0.001,
        tshift: float = 0.040,
        rng: Optional[random.Random] = None,
        on_sojourn: Optional[Callable[[float, float, Packet], None]] = None,
    ):
        self.sim = sim
        self.buffer_packets = buffer_packets
        self.set_capacity(capacity_bps)
        self.controller = PIController(alpha, beta, target_delay, p_max=1.0)
        self.k = k
        self.l_threshold = l_threshold
        self.tshift = tshift
        self.rng = rng or default_stream()
        self.on_sojourn = on_sojourn
        #: Per-departure recorders, as on :class:`repro.net.queue.AQMQueue`
        #: (both set, or both None).
        self.record_time: Optional[Callable[[float], None]] = None
        self.record_sojourn: Optional[Callable[[float], None]] = None
        self.stats = QueueStats()
        self.l_stats = QueueStats()
        self.c_stats = QueueStats()

        self._l: deque[Packet] = deque()
        self._c: deque[Packet] = deque()
        self._l_bytes = 0
        self._c_bytes = 0
        self._wakeup: Optional[Callable[[], None]] = None
        sim.every(update_interval, self._update)

    # ------------------------------------------------------------------
    # Controller
    # ------------------------------------------------------------------
    def _update(self) -> None:
        # PI acts on the Classic queue's delay (RFC 9332 structure).
        self.controller.update(self._c_bytes * 8.0 / self.capacity_bps)

    @property
    def probability(self) -> float:
        """Coupled L marking probability ``k·p'`` (clamped)."""
        return clamp_unit(self.k * self.controller.p)

    # ------------------------------------------------------------------
    # Queue-side interface consumed by Link
    # ------------------------------------------------------------------
    def byte_length(self) -> int:
        """Combined L + C backlog in bytes."""
        return self._l_bytes + self._c_bytes

    def packet_length(self) -> int:
        """Combined L + C backlog in packets."""
        return len(self._l) + len(self._c)

    def queue_delay(self) -> float:
        """Estimated drain time of the combined backlog in seconds."""
        return self.byte_length() * 8.0 / self.capacity_bps

    def set_capacity(self, capacity_bps: float) -> None:
        """Set the drain rate the delay estimates divide by (the link
        calls this when its line rate changes)."""
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps

    def set_wakeup(self, fn: Callable[[], None]) -> None:
        """Register the link's wake-up callback (fires on enqueue)."""
        self._wakeup = fn

    def enqueue(self, packet: Packet) -> bool:
        """Classify, signal, and enqueue one arriving packet.

        Scalable (ECT(1)) packets join the L queue and are CE-marked at
        the coupled probability ``k·p'`` or above the native threshold;
        Classic packets join the C queue and face the squared law
        ``p'²``.  Returns False when the packet was dropped.
        """
        self.stats.arrived += 1
        self.stats.bytes_arrived += packet.size
        if self.packet_length() >= self.buffer_packets:
            self.stats.tail_dropped += 1
            return False

        p_prime = self.controller.p
        if packet.is_scalable:
            self.l_stats.arrived += 1
            p_l = clamp_unit(self.k * p_prime)
            native = self._l_bytes * 8.0 / self.capacity_bps > self.l_threshold
            if native or (p_l > 0.0 and self.rng.random() < p_l):
                packet.mark_ce()
                self.stats.ce_marked += 1
                self.l_stats.ce_marked += 1
            packet.enqueue_time = self.sim.now
            self._l.append(packet)
            self._l_bytes += packet.size
            self.l_stats.enqueued += 1
        else:
            self.c_stats.arrived += 1
            if p_prime > 0.0 and max(self.rng.random(), self.rng.random()) < p_prime:
                if packet.ecn_capable:
                    packet.mark_ce()
                    self.stats.ce_marked += 1
                    self.c_stats.ce_marked += 1
                else:
                    self.stats.aqm_dropped += 1
                    self.c_stats.aqm_dropped += 1
                    return False
            packet.enqueue_time = self.sim.now
            self._c.append(packet)
            self._c_bytes += packet.size
            self.c_stats.enqueued += 1

        self.stats.enqueued += 1
        if self._wakeup is not None:
            self._wakeup()
        return True

    def dequeue(self) -> Optional[Packet]:
        """Serve the next packet under time-shifted L-before-C priority."""
        queue = self._pick_queue()
        if queue is None:
            return None
        packet = queue.popleft()
        if queue is self._l:
            self._l_bytes -= packet.size
            self.l_stats.dequeued += 1
        else:
            self._c_bytes -= packet.size
            self.c_stats.dequeued += 1
        now = self.sim.now
        self.stats.dequeued += 1
        self.stats.bytes_dequeued += packet.size
        if self.record_time is not None:
            self.record_time(now)
            self.record_sojourn(now - packet.enqueue_time)
        if self.on_sojourn is not None:
            self.on_sojourn(now, now - packet.enqueue_time, packet)
        return packet

    def _pick_queue(self) -> Optional[deque]:
        if not self._l and not self._c:
            return None
        if not self._l:
            return self._c
        if not self._c:
            return self._l
        now = self.sim.now
        l_wait = now - self._l[0].enqueue_time
        c_wait = now - self._c[0].enqueue_time
        # Time-shifted priority: L goes first unless C has waited tshift more.
        return self._c if c_wait > l_wait + self.tshift else self._l

    def __len__(self) -> int:
        return self.packet_length()
