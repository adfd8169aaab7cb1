"""Dumbbell testbed topology — the simulated equivalent of Figure 10.

The paper's testbed is two client–server pairs on either side of a Linux
AQM router.  The simulated dumbbell preserves what matters to the
experiments:

* all data packets share one bottleneck (AQM queue + serializing link);
* each flow has its own base RTT (per-flow netem delay in the testbed), so
  RTT heterogeneity is possible;
* the reverse (ACK) path is uncongested;
* UDP sources feed the same bottleneck and end at the link, which counts
  their packets and bytes as it sends them.

Each fixed delay is one heap entry pushed straight to the next hop, with
no :meth:`~repro.sim.engine.Simulator.post` frame: the link pushes a
flow's data packet to its receiver ``rtt / 2`` after transmission (the
route :meth:`~repro.net.link.Link.add_route` registers), and the
receiver pushes each ACK's fields to its sender's
:meth:`~repro.tcp.base.TcpSender.on_ack` ``rtt / 2`` later, with no ACK
packet (the ``ack_delay`` and ``on_ack`` it is built with).  Both take
their delay from :meth:`Dumbbell.add_tcp_flow`, which requires
``rtt > 0``.

Per-packet sojourn times at the bottleneck, the AQM probability, the
queue-delay estimate and link utilization are all recorded here, on the
sampling grid the experiment requests (1 s in most of the paper's plots).
The queue writes sojourns into :attr:`Dumbbell.sojourns` itself, and each
flow's goodput record reads its receiver's delivered-segment count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.aqm.base import AQM
from repro.errors import ConfigError
from repro.metrics.flowstats import FlowTable
from repro.metrics.series import TimeSeries
from repro.net.faults import FaultInjector
from repro.net.link import Link
from repro.net.packet import ECN
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantChecker
from repro.sim.random import RandomStreams
from repro.tcp import SENDERS, TcpReceiver, TcpSender
from repro.traffic.udp import UdpSource

__all__ = ["Dumbbell"]

#: ECN mode implied by each congestion-control name.
_ECN_MODE = {
    "reno": "off",
    "cubic": "off",
    "ecn-cubic": "classic",
    "dctcp": "scalable",
}


class Dumbbell:
    """A single-bottleneck testbed instance.

    Parameters
    ----------
    sim:
        The simulator.
    streams:
        Seeded stream factory; flows and sources draw start-time jitter
        and the AQM its drop randomness from here.
    capacity_bps:
        Bottleneck line rate.
    aqm:
        The AQM under test (``None`` → tail-drop).
    buffer_packets:
        Router buffer (Table 1: 40 000 packets).
    sample_period:
        Period of the sampled series (1 s in the paper's plots).
    record_sojourns:
        Keep every packet's bottleneck sojourn time (needed by the CDF
        and percentile figures; switch off for very long runs).  The
        queue records them through its ``record_time`` and
        ``record_sojourn`` attributes, which the dumbbell binds to
        :attr:`sojourns`' buffers; a custom queue without them raises
        :class:`~repro.errors.ConfigError`.
    queue:
        Override the bottleneck queue with a custom link-drainable queue
        (e.g. :class:`repro.aqm.dualq.DualQueueCoupledAqm`).  When given,
        ``aqm`` must be None — the queue owns its own AQM logic.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        capacity_bps: float,
        aqm: Optional[AQM],
        buffer_packets: int = 40_000,
        sample_period: float = 1.0,
        record_sojourns: bool = True,
        queue=None,
    ):
        self.sim = sim
        self.streams = streams
        self.capacity_bps = capacity_bps
        self.aqm = aqm
        self.flows = FlowTable()
        self.senders: Dict[int, TcpSender] = {}
        self.receivers: Dict[int, TcpReceiver] = {}
        self.udp_sources: Dict[int, UdpSource] = {}
        self._next_flow_id = 0

        self.sojourns = TimeSeries("sojourn")
        self.queue_delay = TimeSeries("queue_delay")
        self.probability = TimeSeries("probability")
        self.raw_probability = TimeSeries("raw_probability")
        self.utilization = TimeSeries("utilization")

        if queue is not None:
            if aqm is not None:
                raise ValueError("pass either a custom queue or an aqm, not both")
            self.queue = queue
        else:
            self.queue = AQMQueue(sim, aqm, capacity_bps, buffer_packets=buffer_packets)
        if record_sojourns:
            if not (
                hasattr(self.queue, "record_time")
                and hasattr(self.queue, "record_sojourn")
            ):
                raise ConfigError(
                    f"{type(self.queue).__name__} has no record_time/"
                    "record_sojourn, so it cannot record sojourns; pass "
                    "record_sojourns=False"
                )
            self.queue.record_time, self.queue.record_sojourn = (
                self.sojourns.buffer_appends()
            )
        # Flows without a route (UDP) end at the link.
        self.link = Link(sim, self.queue, capacity_bps)
        #: Set by :meth:`install_faults` / :meth:`enable_validation`.
        self.fault_injector: Optional[FaultInjector] = None
        self.invariant_checker: Optional[InvariantChecker] = None

        self._last_bytes = 0
        self.sample_period = sample_period
        sim.every(sample_period, self._sample)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _sample(self) -> None:
        now = self.sim.now
        self.queue_delay.append(now, self.queue.queue_delay())
        prob_source = self.aqm if self.aqm is not None else self.queue
        if hasattr(prob_source, "probability"):
            self.probability.append(now, prob_source.probability)
            self.raw_probability.append(
                now, getattr(prob_source, "raw_probability", prob_source.probability)
            )
        delta = self.link.bytes_sent - self._last_bytes
        self._last_bytes = self.link.bytes_sent
        self.utilization.append(
            now, delta * 8.0 / (self.capacity_bps * self.sample_period)
        )

    def set_capacity(self, capacity_bps: float) -> None:
        """Change the bottleneck rate (Figure 12's experiment)."""
        self.capacity_bps = capacity_bps
        self.link.set_capacity(capacity_bps)

    def install_faults(self, faults, rng) -> FaultInjector:
        """Wire a declarative fault schedule (see :mod:`repro.net.faults`)
        into the bottleneck link, queue and AQM.  Returns the injector,
        whose :attr:`~repro.net.faults.FaultInjector.timeline` records
        every fault transition with its virtual time."""
        if self.fault_injector is None:
            self.fault_injector = FaultInjector(
                self.sim, rng, link=self.link, queue=self.queue, aqm=self.aqm
            )
        self.fault_injector.install(faults)
        return self.fault_injector

    def enable_validation(self, check_interval: Optional[float] = None) -> InvariantChecker:
        """Attach a periodic :class:`~repro.sim.invariants.InvariantChecker`
        to the bottleneck (packet conservation, probability range, clock
        monotonicity, queue depth)."""
        if self.invariant_checker is None:
            kwargs = {} if check_interval is None else {"check_interval": check_interval}
            self.invariant_checker = InvariantChecker(
                self.sim, queue=self.queue, aqm=self.aqm, **kwargs
            )
            self.invariant_checker.start()
        return self.invariant_checker

    # ------------------------------------------------------------------
    # Flow construction
    # ------------------------------------------------------------------
    def add_tcp_flow(
        self,
        cc: str,
        rtt: float,
        start: float = 0.0,
        stop: Optional[float] = None,
        flow_size: Optional[int] = None,
        label: Optional[str] = None,
        jitter: float = 1.0,
        sack: bool = False,
    ) -> TcpSender:
        """Create one TCP flow of congestion control ``cc``.

        ``rtt`` is the two-way base propagation delay in seconds.  Start
        times receive uniform jitter up to ``jitter`` seconds to avoid
        artificial synchronization (as distinct real senders would).
        ``sack`` enables selective acknowledgements on both endpoints.
        """
        if cc not in SENDERS:
            raise ValueError(f"unknown congestion control {cc!r}; choose from {sorted(SENDERS)}")
        if not rtt > 0:  # NaN too: its half would reach the heap unordered
            raise ValueError(f"RTT must be positive (got {rtt})")
        # Checked before any wiring, so a rejected flow leaves nothing
        # behind; written so that a NaN stop fails too.
        if stop is not None and not stop > start:
            raise ValueError(f"stop ({stop}) must be after start ({start})")
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        label = label or cc
        record = self.flows.add(flow_id, label, mss_bytes=1448)

        sender_cls = SENDERS[cc]
        sender = sender_cls(
            self.sim,
            flow_id,
            transmit=self.queue.enqueue,
            ecn_mode=_ECN_MODE[cc],
            flow_size=flow_size,
            sack=sack,
        )
        # Each one-way delay is a heap entry pushed straight to the next
        # hop: the data packet to the receiver's deliver, the ACK's
        # fields to the sender's on_ack (no ACK packet).
        receiver = TcpReceiver(
            self.sim,
            flow_id,
            rtt / 2.0,
            sender.on_ack,
            ecn_mode=_ECN_MODE[cc],
            sack=sack,
        )
        record.receiver = receiver
        self.link.add_route(flow_id, rtt / 2.0, receiver.deliver)
        self.senders[flow_id] = sender
        self.receivers[flow_id] = receiver

        rng = self.streams.stream(f"flow/{flow_id}")
        sender.start(at=start + rng.uniform(0.0, jitter))
        if stop is not None:
            self.sim.at(stop, sender.stop)
        return sender

    def add_udp_flow(
        self,
        rate_bps: float,
        start: float = 0.0,
        stop: Optional[float] = None,
        label: str = "udp",
        ecn: ECN = ECN.NOT_ECT,
    ) -> UdpSource:
        """Create one constant-bit-rate unresponsive flow."""
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        self.flows.add(flow_id, label, mss_bytes=1448)
        source = UdpSource(
            self.sim, flow_id, transmit=self.queue.enqueue, rate_bps=rate_bps, ecn=ecn
        )
        self.udp_sources[flow_id] = source
        source.start(at=start, until=stop)
        return source

    # ------------------------------------------------------------------
    # Read-outs
    # ------------------------------------------------------------------
    def goodput_bps(self, label: str, now: Optional[float] = None) -> List[float]:
        """Per-flow goodput for one class over the open window."""
        return self.flows.goodputs(label, now if now is not None else self.sim.now)
