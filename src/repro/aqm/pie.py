"""PIE — Proportional Integral controller Enhanced (RFC 8033 / Linux).

The paper's primary comparison baseline.  PIE wraps the basic PI
controller of :mod:`repro.aqm.pi` with the enhancements and heuristics the
paper catalogues in Sections 3 and 5:

1. **Time-units queue** — queuing delay, not bytes, is controlled.  By
   default the delay is the queue's exact backlog/capacity conversion;
   ``dq_rate_estimator=True`` switches to PIE's own measured
   departure-rate estimator (RFC 8033 §5.1, Linux ``sch_pie``'s
   ``dq_rate_estimator``), which times the drain of
   :data:`DQ_THRESHOLD` bytes through the :attr:`AQM.on_dequeue` hook
   and divides the backlog by the smoothed rate.
2. **Auto-tuning** — α and β are scaled by the stepped lookup table of
   :mod:`repro.aqm.tune_table` depending on the magnitude of p.  This is
   the heuristic that PI2 replaces with output squaring.
3. **Burst allowance** — no drops for ``max_burst`` (100 ms) after the
   queue has been idle and control has released.
4. The further Linux heuristics the paper lists in Section 5, each
   individually switchable so that the paper's **bare-PIE** (all off; the
   paper found it indistinguishable from full PIE) and the ablation
   benchmarks can exercise them:

   * no drop while p < 20 % and the (old) queue delay < target/2;
   * ECN packets are dropped rather than marked once p exceeds 10 %;
   * Δp capped at 2 % once p exceeds 10 %;
   * Δp forced up by 2 % when queue delay exceeds 250 ms;
   * multiplicative decay of p when the queue is empty;
   * never drop when fewer than a couple of packets are queued.

Defaults follow Table 1: target 20 ms, burst 100 ms, α = 2/16, β = 20/16.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.aqm.base import AQM, Decision
from repro.aqm.pi import PIController
from repro.aqm.tune_table import tune
from repro.net.packet import ECN, Packet
from repro.sim.random import default_stream
from repro.units import BitsPerSecond, PerSecond, Probability, Seconds

__all__ = ["PieAqm", "BarePieAqm", "DQ_THRESHOLD", "DQ_SMOOTHING", "DQ_INITIAL_RATE"]

# Module globals read faster than the enum class attributes per packet.
_NOT_ECT = ECN.NOT_ECT
_PASS, _MARK, _DROP = Decision.PASS, Decision.MARK, Decision.DROP

#: Measured departure-rate estimator constants (RFC 8033 §5.1): a rate
#: sample times the drain of this many bytes (Linux ``QUEUE_THRESHOLD``)...
DQ_THRESHOLD = 16 * 1024
#: ...samples are smoothed with this EWMA weight...
DQ_SMOOTHING = 0.5
#: ...and this rate stands in until the first sample completes.
DQ_INITIAL_RATE: BitsPerSecond = 10e6


class PieAqm(AQM):
    """Linux-style PIE with individually switchable heuristics.

    Parameters
    ----------
    alpha, beta:
        Base gain factors in Hz, scaled by the auto-tune table each update
        (Table 1 defaults 2/16 and 20/16).
    target_delay:
        τ₀, the queuing-delay reference (20 ms default).
    update_interval:
        T between controller updates (32 ms, the paper's analysis value).
    max_burst:
        Burst allowance in seconds (100 ms; 0 disables).
    auto_tune:
        Apply the stepped gain-scaling table.  Switching this off (with
        the other heuristics) yields the unstable fixed-gain PI the 'pi'
        curve of Figure 6 demonstrates.
    ecn_drop_threshold:
        Above this probability, ECN-capable packets are dropped rather
        than marked (Linux: 10 %).  ``None`` disables the rule — the
        paper's "reworked" configuration used for its PIE results.
    dp_cap_enabled / delay_kick_enabled / drop_early_suppress / decay_enabled:
        The remaining Section 5 heuristics.
    dq_rate_estimator:
        Estimate queue delay as backlog over a measured departure rate
        instead of the queue's exact backlog/capacity conversion.
    """

    def __init__(
        self,
        alpha: PerSecond = 2.0 / 16.0,
        beta: PerSecond = 20.0 / 16.0,
        target_delay: Seconds = Seconds(0.020),
        update_interval: Seconds = Seconds(0.032),
        max_burst: Seconds = Seconds(0.100),
        auto_tune: bool = True,
        ecn: bool = True,
        ecn_drop_threshold: Optional[Probability] = None,
        dp_cap_enabled: bool = True,
        delay_kick_enabled: bool = True,
        drop_early_suppress: bool = True,
        decay_enabled: bool = True,
        min_backlog_packets: int = 2,
        dq_rate_estimator: bool = False,
        rng: Optional[random.Random] = None,
    ):
        super().__init__()
        self.controller = PIController(alpha, beta, target_delay)
        self.update_interval = update_interval
        self.max_burst = max_burst
        self.auto_tune = auto_tune
        self.ecn = ecn
        self.ecn_drop_threshold = ecn_drop_threshold
        self.dp_cap_enabled = dp_cap_enabled
        self.delay_kick_enabled = delay_kick_enabled
        self.drop_early_suppress = drop_early_suppress
        self.decay_enabled = decay_enabled
        self.min_backlog_packets = min_backlog_packets
        self.rng = rng or default_stream()

        self.burst_allowance = max_burst
        self._qdelay: Seconds = 0.0
        self._qdelay_old: Seconds = 0.0

        self.dq_rate_estimator = dq_rate_estimator
        #: The smoothed measured departure rate (dq_rate_estimator only).
        self.dq_rate: BitsPerSecond = DQ_INITIAL_RATE
        self._dq_start: Optional[Seconds] = None
        self._dq_bytes = 0
        if dq_rate_estimator:
            self.on_dequeue = self._measure_departure

    # ------------------------------------------------------------------
    # Periodic probability recomputation
    # ------------------------------------------------------------------
    def update(self) -> None:
        """RFC 8033 periodic step: PI delta, auto-tune, caps, burst state."""
        if self.dq_rate_estimator:
            self._qdelay = self.queue.byte_length() * 8.0 / self.dq_rate
        else:
            self._qdelay = self.queue.queue_delay()
        ctl = self.controller
        p = ctl.p

        delta = ctl.alpha * (self._qdelay - ctl.target) + ctl.beta * (
            self._qdelay - self._qdelay_old
        )
        if self.auto_tune:
            delta *= tune(p)
        # Δp is capped at 2 % once p exceeds 10 % (Section 5 heuristic).
        if self.dp_cap_enabled and p >= 0.1 and delta > 0.02:
            delta = 0.02
        p += delta
        # Extreme-delay kick: force p up when delay exceeds 250 ms.
        if self.delay_kick_enabled and self._qdelay > 0.250:
            p += 0.02
        # Decay towards zero while the queue stays empty.
        if self.decay_enabled and self._qdelay == 0.0 and self._qdelay_old == 0.0:
            p *= 0.98
        ctl.p = min(max(p, 0.0), 1.0)

        # Burst allowance state machine (RFC 8033 §4.4).
        if self.max_burst > 0:
            if (
                ctl.p == 0.0
                and self._qdelay < ctl.target / 2
                and self._qdelay_old < ctl.target / 2
            ):
                self.burst_allowance = self.max_burst
            else:
                self.burst_allowance = max(
                    0.0, self.burst_allowance - self.update_interval
                )

        self._qdelay_old = self._qdelay
        ctl.prev_delay = self._qdelay

    def _measure_departure(self, packet: Packet, now: Seconds) -> None:
        """RFC 8033 §5.1: time how long :data:`DQ_THRESHOLD` bytes take
        to drain, and smooth the resulting rate sample into
        :attr:`dq_rate`.

        A measurement starts only while the live backlog a departure
        leaves behind holds at least the threshold, so every sample
        times a busy drain and none spans an idle gap.
        """
        if self._dq_start is None:
            if self.queue.byte_length() >= DQ_THRESHOLD:
                # The packet triggering the start drains *at* the start
                # instant; counting it would bias the rate high.
                self._dq_start = now
                self._dq_bytes = 0
            return
        self._dq_bytes += packet.size
        if self._dq_bytes >= DQ_THRESHOLD:
            elapsed = now - self._dq_start
            if elapsed > 0:
                sample = self._dq_bytes * 8.0 / elapsed
                self.dq_rate = (1 - DQ_SMOOTHING) * self.dq_rate + DQ_SMOOTHING * sample
            self._dq_start = None

    # ------------------------------------------------------------------
    # Enqueue-time decision
    # ------------------------------------------------------------------
    def on_enqueue(self, packet: Packet) -> Decision:
        """Verdict after PIE's suppression heuristics, then Bernoulli(p)."""
        p = self.controller.p
        if self.max_burst > 0 and self.burst_allowance > 0:
            return _PASS
        if (
            self.drop_early_suppress
            and p < 0.2
            and self._qdelay_old < self.controller.target / 2
        ):
            return _PASS
        if self.queue is not None and (
            self.queue.packet_length() < self.min_backlog_packets
        ):
            return _PASS
        if p <= 0.0 or self.rng.random() >= p:
            return _PASS
        if self.ecn and packet.ecn is not _NOT_ECT:
            if self.ecn_drop_threshold is not None and p > self.ecn_drop_threshold:
                return _DROP
            return _MARK
        return _DROP

    @property
    def probability(self) -> Probability:
        """Currently applied drop/mark probability ``p``."""
        return self.controller.p


class BarePieAqm(PieAqm):
    """The paper's 'bare-PIE': PIE with every Section 5 heuristic disabled.

    Only the PI core plus the auto-tune gain scaling remain (the scaling
    *is* PIE's response-linearization, so removing it too would give plain
    PI).  The paper reports bare-PIE indistinguishable from full PIE in
    every experiment; the ablation bench re-checks this.
    """

    def __init__(self, **kwargs):
        kwargs.setdefault("max_burst", 0.0)
        kwargs.setdefault("ecn_drop_threshold", None)
        kwargs.setdefault("dp_cap_enabled", False)
        kwargs.setdefault("delay_kick_enabled", False)
        kwargs.setdefault("drop_early_suppress", False)
        kwargs.setdefault("decay_enabled", False)
        super().__init__(**kwargs)
