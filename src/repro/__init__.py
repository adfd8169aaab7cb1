"""repro — reproduction of De Schepper et al., *PI2: A Linearized AQM for
both Classic and Scalable TCP* (CoNEXT 2016).

The package provides:

* :mod:`repro.core` — the paper's contribution: the PI2 AQM (linear PI on
  a pseudo-probability, squared output for Classic TCP) and the coupled
  PI+PI2 single-queue AQM for Classic/Scalable coexistence.
* :mod:`repro.aqm` — the baselines it is evaluated against (PIE with all
  Linux heuristics, bare-PIE, basic PI, RED) plus the DualQ Coupled
  extension.
* :mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.tcp`,
  :mod:`repro.traffic` — the discrete-event simulator, bottleneck
  queue/link model, TCP congestion controls (Reno, Cubic/CReno, DCTCP,
  ECN-Cubic) and traffic generators standing in for the paper's Linux
  testbed.
* :mod:`repro.analysis` — Appendix A's steady-state laws and Appendix B's
  fluid-model stability analysis (Bode margins).
* :mod:`repro.harness`, :mod:`repro.metrics` — the evaluation harness
  reproducing every figure of Section 6.

Quickstart::

    from repro.harness import light_tcp, pi2_factory, run_experiment

    result = run_experiment(light_tcp(pi2_factory(), duration=30.0))
    print(result.sojourn_summary())           # per-packet queue delay
    print(result.mean_utilization())
"""

from repro.core import CoupledPi2Aqm, Pi2Aqm
from repro.errors import (
    CallbackError,
    ConfigError,
    ControllerDivergence,
    InvariantViolation,
    ReproError,
    SimulationError,
    WatchdogExceeded,
)

__version__ = "1.0.0"

__all__ = [
    "Pi2Aqm",
    "CoupledPi2Aqm",
    "ReproError",
    "ConfigError",
    "SimulationError",
    "CallbackError",
    "WatchdogExceeded",
    "InvariantViolation",
    "ControllerDivergence",
    "__version__",
]
