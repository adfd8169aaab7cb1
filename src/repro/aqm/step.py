"""Step-threshold (on-off) ECN marking — classic data-centre DCTCP style.

The original DCTCP deployment marks every ECN-capable packet while the
instantaneous queue exceeds a shallow threshold K and none below it.
Appendix A contrasts this marker with the PI-driven probabilistic one:

* against a step threshold DCTCP's window follows equation (12),
  ``W = 2/p²`` (on-off marking produces RTT-length mark trains);
* against a probabilistic marker it follows equation (11), ``W = 2/p`` —
  "This explains the same phenomenon found empirically in Irteza et
  al [22], when comparing a step threshold with a RED ramp."

The DualQ extension uses the same mechanism as its native L4S signal.
The threshold can be set in time (queue delay) or bytes; time units are
the default, consistent with the rest of the repository.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.aqm.base import AQM, Decision, clamp_unit
from repro.net.packet import Packet

__all__ = ["StepThresholdAqm"]


class StepThresholdAqm(AQM):
    """Mark all ECN-capable traffic while the queue exceeds a threshold.

    Parameters
    ----------
    threshold_delay:
        Queue-delay threshold K in seconds (e.g. 1 ms for L4S-style,
        ~20 µs-per-packet-scale for data-centre DCTCP at 10G).
    threshold_bytes:
        Alternative byte threshold; if given, it takes precedence.
    drop_not_ect:
        Whether Not-ECT packets are dropped above the threshold (off by
        default: the classic deployment assumes an all-ECN data centre,
        so Not-ECT traffic just passes to the tail-drop backstop).
    rng:
        Accepted so :class:`~repro.harness.factories.NamedAqmFactory`
        can build it like every other AQM; the marker draws no random
        numbers.
    """

    def __init__(
        self,
        threshold_delay: float = 0.001,
        threshold_bytes: Optional[int] = None,
        drop_not_ect: bool = False,
        rng: Optional[random.Random] = None,
    ):
        super().__init__()
        if threshold_delay <= 0:
            raise ValueError(f"threshold must be positive (got {threshold_delay})")
        if threshold_bytes is not None and threshold_bytes <= 0:
            raise ValueError(f"byte threshold must be positive (got {threshold_bytes})")
        self.threshold_delay = threshold_delay
        self.threshold_bytes = threshold_bytes
        self.drop_not_ect = drop_not_ect
        self.marked = 0
        self.seen = 0

    def _above_threshold(self) -> bool:
        if self.threshold_bytes is not None:
            return self.queue.byte_length() > self.threshold_bytes
        return self.queue.queue_delay() > self.threshold_delay

    def on_enqueue(self, packet: Packet) -> Decision:
        """Mark every ECT arrival while the queue is above the threshold."""
        self.seen += 1
        if not self._above_threshold():
            return Decision.PASS
        if packet.ecn_capable:
            self.marked += 1
            return Decision.MARK
        if self.drop_not_ect:
            return Decision.DROP
        return Decision.PASS

    @property
    def probability(self) -> float:
        """Observed lifetime marking fraction (the p of equation (12))."""
        return clamp_unit(self.marked / self.seen) if self.seen else 0.0
