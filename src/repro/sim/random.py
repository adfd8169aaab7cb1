"""Seeded, named random-number streams.

Every stochastic component in the simulator (each AQM's drop decision, each
TCP flow's start-time jitter, the web workload's flow sizes, ...) draws from
its own named stream derived from a single master seed.  This gives two
properties the paper's evaluation methodology needs:

* **Reproducibility** — a run is a pure function of (scenario, seed).
* **Variance isolation** — changing one component (say, swapping PIE for
  PI2) does not perturb the random numbers any *other* component sees, so
  A/B comparisons such as Figure 11's PIE-vs-PI2 columns differ only in the
  AQM decision sequence, not in incidental noise.

The derivation hashes the stream name with the master seed, so streams are
independent of the order in which they are requested.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams", "default_stream"]


class RandomStreams:
    """Factory of independent named :class:`random.Random` streams.

    Example
    -------
    >>> streams = RandomStreams(seed=1)
    >>> aqm_rng = streams.stream("aqm")
    >>> flow_rng = streams.stream("flow/3")
    >>> streams.stream("aqm") is aqm_rng   # streams are cached by name
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.seed} streams={len(self._streams)}>"


def default_stream(seed: int = 0) -> random.Random:
    """A deterministic fallback stream for components built without a
    :class:`RandomStreams` factory (direct construction in unit tests,
    standalone scripts).

    Harness-built experiments always inject a named stream; this exists so
    the ``rng or default_stream()`` fallback in AQM constructors is still a
    pure function of ``seed`` rather than of process entropy.  Bit-identical
    to the historical ``random.Random(0)`` fallback.
    """
    return random.Random(seed)
