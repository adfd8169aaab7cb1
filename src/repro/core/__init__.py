"""The paper's contribution: PI2 and the coupled PI+PI2 coexistence AQM."""

from repro.core.coupled import (
    DEFAULT_ALPHA_COUPLED,
    DEFAULT_BETA_COUPLED,
    CoupledPi2Aqm,
)
from repro.core.coupling import K_DEPLOYED
from repro.core.pi2 import DEFAULT_ALPHA_PI2, DEFAULT_BETA_PI2, Pi2Aqm

__all__ = [
    "Pi2Aqm",
    "CoupledPi2Aqm",
    "DEFAULT_ALPHA_PI2",
    "DEFAULT_BETA_PI2",
    "DEFAULT_ALPHA_COUPLED",
    "DEFAULT_BETA_COUPLED",
    "K_DEPLOYED",
]
