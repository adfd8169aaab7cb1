"""The coupling factor between Scalable and Classic congestion signals.

Appendix A of the paper derives the drop/mark probability relation that
equalizes the steady-state throughput of a DCTCP flow (equation (11),
``W = 2/p``) and a CReno flow (equation (7), ``W = 1.68/√p``):

    p_classic = (p_scalable / k)²            (equation 14)

with the analytic coupling factor ``k = 2/1.68 ≈ 1.19``
(:func:`repro.analysis.steady_state.coupled_classic_probability` and
:func:`~repro.analysis.steady_state.k_analytic`).  The paper then
*deploys* ``k = 2``, validated empirically, because k = 2 is also the
optimal ratio between the Scalable and Classic gain factors for
stability, and because dividing by two is cheap in hardware.  The
coupled AQMs (:mod:`repro.core.coupled`, :mod:`repro.aqm.dualq`) apply
it in their output stages.
"""

__all__ = ["K_DEPLOYED"]

#: The value the paper actually deploys and validates empirically.
K_DEPLOYED = 2.0
