"""Unit/domain aliases for the quantities the PI2 reproduction computes.

PI2's correctness hinges on quantities with strict domains and units: the
α/β gains are frequencies in 1/s (Briscoe, "PI² Parameters",
arXiv:2107.01003), the target delay τ₀ and update interval T are in
seconds, link capacities are in bit/s, queue backlogs are counted in
packets, bytes or bits, and the controller outputs are probabilities in
[0, 1] whose squared/coupled forms must stay clamp-dominated.  A
milliseconds-vs-seconds mixup or a packets-vs-bytes backlog confusion
produces a run that *completes* — it is just quietly wrong by orders of
magnitude.

The aliases below are **transparent type aliases** (each one *is*
``float`` at runtime): annotating a signature with them costs nothing
and changes nothing — ``Seconds(0.02)`` is ``float(0.02)``, bit-identical
to the bare literal, so the annotations are digest-preserving by
construction.  They stay as documentation of each quantity's unit at
the signatures that carry them; no static rule checks them.  Unit slips
are caught at runtime instead: a seconds-plus-packets term in an AQM's
control law moves that AQM's seeded digest, which the locks in
``tests/harness/test_digest_regression.py`` and the ``perf/e2e`` golden
digests pin.
"""

from __future__ import annotations

from typing import TypeAlias

__all__ = [
    "Seconds",
    "PerSecond",
    "Packets",
    "Bytes",
    "Bits",
    "BitsPerSecond",
    "Probability",
]

#: Virtual time, delays, intervals and the PI target τ₀ (seconds).
Seconds: TypeAlias = float

#: The PI integral/proportional gains α and β (1/s — i.e. Hz).
PerSecond: TypeAlias = float

#: Queue backlog counted in packets.
Packets: TypeAlias = float

#: Queue backlog / packet sizes counted in bytes.
Bytes: TypeAlias = float

#: Quantities counted in bits (packet sizes on the wire).
Bits: TypeAlias = float

#: Link capacities and departure rates (bit/s).
BitsPerSecond: TypeAlias = float

#: Drop/mark probabilities and the PI2 pseudo-probability p' — always
#: in [0, 1], written through :func:`repro.aqm.base.clamp_unit`.
Probability: TypeAlias = float
