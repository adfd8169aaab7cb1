"""AQM substrate: interface, PIE and its lineage, plus the DualQ extension.

The paper's own algorithms (PI2 and the coupled PI+PI2) live in
:mod:`repro.core`; this package holds everything they are compared with or
built from: the PI controller, PIE (full and bare, with its optional
measured departure-rate estimator), RED, the √(2p) self-tuned PI, the
step-threshold marker, the fixed-probability oracles of Appendix A, and
the DualQ Coupled AQM.  The Section 3 lineage statements about RED, PIE
and PI2 are the ``lineage.*`` claims of :mod:`repro.harness.claims`.
"""

from repro.aqm.adaptive import AdaptivePiAqm
from repro.aqm.base import AQM, AQMStats, Decision, QueueView
from repro.aqm.dualq import DualQueueCoupledAqm
from repro.aqm.fixed import DeterministicMarker, FixedProbabilityAqm
from repro.aqm.pi import PIController, PiAqm
from repro.aqm.pie import BarePieAqm, PieAqm
from repro.aqm.red import RedAqm
from repro.aqm.step import StepThresholdAqm
from repro.aqm.tune_table import K_PI2, K_PIE, TUNE_TABLE, sqrt2p, tune

__all__ = [
    "AQM",
    "AQMStats",
    "Decision",
    "QueueView",
    "PIController",
    "PiAqm",
    "AdaptivePiAqm",
    "PieAqm",
    "BarePieAqm",
    "RedAqm",
    "DualQueueCoupledAqm",
    "FixedProbabilityAqm",
    "DeterministicMarker",
    "StepThresholdAqm",
    "tune",
    "sqrt2p",
    "TUNE_TABLE",
    "K_PIE",
    "K_PI2",
]
