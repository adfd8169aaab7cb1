"""Control-theoretic substrate: Appendix A laws and Appendix B fluid model."""

from repro.analysis.bode import (
    Margins,
    margins_from_loop,
    margins_reno_pi,
    margins_reno_pi2,
    margins_reno_pie,
    margins_scal_pi,
)
from repro.analysis.fluid import (
    PAPER_PI2_GAINS,
    PAPER_PIE_GAINS,
    PAPER_SCAL_GAINS,
    AqmTransfer,
    PiGains,
    loop_reno_p,
    loop_reno_p2,
    loop_scal_p,
)
from repro.analysis import steady_state
from repro.analysis.timedomain import FluidResult, FluidScenario, simulate_fluid

__all__ = [
    "steady_state",
    "FluidScenario",
    "FluidResult",
    "simulate_fluid",
    "PiGains",
    "AqmTransfer",
    "loop_reno_p",
    "loop_reno_p2",
    "loop_scal_p",
    "PAPER_PIE_GAINS",
    "PAPER_PI2_GAINS",
    "PAPER_SCAL_GAINS",
    "Margins",
    "margins_from_loop",
    "margins_reno_pie",
    "margins_reno_pi",
    "margins_reno_pi2",
    "margins_scal_pi",
]
