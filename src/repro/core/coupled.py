"""Coupled PI + PI2 in a single queue (Section 5, Figure 9).

The coexistence AQM: one FIFO queue, one PI controller, two output stages
selected per packet by an ECN classifier.

* The PI controller (Scalable gains, Table 1: α = 10/16, β = 100/16)
  drives the Scalable marking probability ``ps`` directly — a Scalable
  control's window is linear in the signal (equation (11)), so no
  encoding is needed.
* **Classifier** (Figure 9): packets with ECT(1) *or CE* take the
  Scalable branch and are CE-marked when ``ps > Y``; ECT(0) and Not-ECT
  packets take the Classic branch and are marked (ECT(0)) or dropped
  (Not-ECT) when ``ps/k > max(Y₁, Y₂)`` — i.e. with probability
  ``pc = (ps/k)²``, equation (14)'s coupling with the squared output
  stage fused into one decision.
* ``k = 2`` by default (the deployed value; 1.19 is the analytic one —
  the k-factor ablation bench sweeps this).

Overload: ``ps`` saturates at 100 %, at which point the Classic
probability reaches its (ps_max/k)² = 25 % cap — the same limits
Section 5 describes; beyond that the queue grows and tail-drop takes
over.

"Think once to mark, think twice to drop."
"""

from __future__ import annotations

import random
from typing import Optional

from repro.aqm.base import AQM, Decision, clamp_unit
from repro.aqm.pi import PIController
from repro.core.coupling import K_DEPLOYED
from repro.net.packet import ECN, Packet
from repro.sim.random import default_stream
from repro.units import PerSecond, Probability, Seconds

__all__ = ["CoupledPi2Aqm", "DEFAULT_ALPHA_COUPLED", "DEFAULT_BETA_COUPLED"]

#: Scalable-branch gains (Table 1: 10/16 and 100/16) — 2× the Classic
#: PI2 gains, matching the paper's note that k = 2 is also the optimal
#: gain-factor ratio.
DEFAULT_ALPHA_COUPLED: PerSecond = 10.0 / 16.0
DEFAULT_BETA_COUPLED: PerSecond = 100.0 / 16.0

# Module globals read faster than the enum class attributes per packet.
_NOT_ECT, _ECT1, _CE = ECN.NOT_ECT, ECN.ECT1, ECN.CE
_PASS, _MARK, _DROP = Decision.PASS, Decision.MARK, Decision.DROP


class CoupledPi2Aqm(AQM):
    """Single-queue coupled AQM for Classic + Scalable coexistence."""

    def __init__(
        self,
        alpha: PerSecond = DEFAULT_ALPHA_COUPLED,
        beta: PerSecond = DEFAULT_BETA_COUPLED,
        target_delay: Seconds = Seconds(0.020),
        update_interval: Seconds = Seconds(0.032),
        k: float = K_DEPLOYED,
        ps_max: Probability = 1.0,
        rng: Optional[random.Random] = None,
    ):
        super().__init__()
        if k <= 0:
            raise ValueError(f"coupling factor k must be positive (got {k})")
        self.controller = PIController(alpha, beta, target_delay, p_max=ps_max)
        self.update_interval = update_interval
        self.k = k
        self.rng = rng or default_stream()
        # Per-class signal accounting (Figure 17 plots these separately).
        self.scalable_marked = 0
        self.scalable_seen = 0
        self.classic_signalled = 0
        self.classic_seen = 0

    # ------------------------------------------------------------------
    def update(self) -> None:
        self.controller.update(self.queue.queue_delay())

    def on_enqueue(self, packet: Packet) -> Decision:
        ps = self.controller.p
        ecn = packet.ecn
        # Figure 9's classifier (``Packet.is_scalable``): ECT(1), or CE on
        # a packet that was sent ECT(1).
        if ecn is _ECT1 or (ecn is _CE and packet.ect is _ECT1):
            # Scalable branch: direct linear marking, think once.
            self.scalable_seen += 1
            if ps > 0.0 and self.rng.random() < ps:
                self.scalable_marked += 1
                return _MARK
            return _PASS
        # Classic branch: coupled and squared, think twice.
        self.classic_seen += 1
        # The controller keeps ps finite and in [0, ps_max], and k > 0, so
        # only the upper clamp can bite.  The clamp and the larger of the
        # two draws are plain comparisons that pick the operand
        # ``min(x, 1.0)`` and ``max(y1, y2)`` pick, with no builtin call;
        # both draws are still made, in the same order.
        pc_prime = ps / self.k
        if pc_prime > 1.0:
            pc_prime = 1.0
        if pc_prime > 0.0:
            rng = self.rng
            y = rng.random()
            y2 = rng.random()
            if y2 > y:
                y = y2
            if y < pc_prime:
                self.classic_signalled += 1
                if ecn is not _NOT_ECT:
                    return _MARK  # ECT(0): classic ECN marking
                return _DROP
        return _PASS

    # ------------------------------------------------------------------
    @property
    def probability(self) -> Probability:
        """Scalable marking probability ``ps`` (the controller output)."""
        return self.controller.p

    @property
    def classic_probability(self) -> Probability:
        """Classic drop/mark probability ``pc = (ps/k)²`` (equation 14)."""
        return clamp_unit((self.controller.p / self.k) ** 2)

    @property
    def raw_probability(self) -> Probability:
        return self.controller.p
