"""Standard AQM factories with the paper's Table 1 defaults.

Factories close over configuration and accept the per-run random stream,
matching the :data:`~repro.harness.experiment.AqmFactory` signature.  The
defaults are Table 1's: target 20 ms, PIE α = 2/16 / β = 20/16 with 100 ms
burst allowance, PI2 gains 2.5× PIE's, coupled (Scalable) gains 2× PI2's.

Each ``*_factory`` helper returns a :class:`NamedAqmFactory` rather than a
closure.  The two are interchangeable as callables, but the named form is

* **picklable** — required by the supervised workers
  (:mod:`repro.harness.supervisor`), which run whole experiments in
  other processes, and
* **describable** — :meth:`NamedAqmFactory.cache_key` renders the AQM
  class and its keyword configuration as a stable string, which the
  on-disk result cache (:mod:`repro.harness.cache`) folds into the
  experiment's content hash.

Hand-written closures and lambdas still work everywhere serial; they are
simply excluded from parallel dispatch and caching.
"""

from __future__ import annotations

import random
from typing import Optional, Type

from repro.aqm.base import AQM
from repro.aqm.pi import PiAqm
from repro.aqm.pie import BarePieAqm, PieAqm
from repro.core.coupled import CoupledPi2Aqm
from repro.core.pi2 import Pi2Aqm

__all__ = [
    "NamedAqmFactory",
    "taildrop_factory",
    "pie_factory",
    "bare_pie_factory",
    "pi_factory",
    "pi2_factory",
    "coupled_factory",
    "FACTORIES",
]


class NamedAqmFactory:
    """Picklable, hashable-by-content AQM factory.

    Calling the factory with a :class:`random.Random` builds
    ``cls(rng=rng, **kwargs)`` (or returns ``None`` for tail-drop, when
    ``cls`` is None) — exactly what the closure-based factories used to
    do, but as a plain object the :mod:`pickle` module can move across
    process boundaries and the result cache can fingerprint.
    """

    __slots__ = ("cls", "kwargs")

    def __init__(self, cls: Optional[Type[AQM]], **kwargs):
        self.cls = cls
        self.kwargs = kwargs

    def __call__(self, rng: random.Random) -> Optional[AQM]:
        if self.cls is None:
            return None
        return self.cls(rng=rng, **self.kwargs)

    def cache_key(self) -> str:
        """Stable textual identity: class path + sorted configuration."""
        if self.cls is None:
            name = "taildrop"
        else:
            name = f"{self.cls.__module__}.{self.cls.__qualname__}"
        config = ",".join(f"{k}={self.kwargs[k]!r}" for k in sorted(self.kwargs))
        return f"{name}({config})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NamedAqmFactory)
            and self.cls is other.cls
            and self.kwargs == other.kwargs
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NamedAqmFactory({self.cache_key()})"

    def __getstate__(self):
        return (self.cls, self.kwargs)

    def __setstate__(self, state) -> None:
        self.cls, self.kwargs = state


def taildrop_factory(**_ignored) -> NamedAqmFactory:
    """No AQM: the queue's tail-drop backstop is the only control."""
    return NamedAqmFactory(None)


def pie_factory(**kwargs) -> NamedAqmFactory:
    """Full Linux PIE (paper's comparator: heuristics on, reworked ECN rule)."""
    return NamedAqmFactory(PieAqm, **kwargs)


def bare_pie_factory(**kwargs) -> NamedAqmFactory:
    """PIE with all Section 5 heuristics disabled."""
    return NamedAqmFactory(BarePieAqm, **kwargs)


def pi_factory(**kwargs) -> NamedAqmFactory:
    """Un-tuned basic PI (the unstable 'pi' curve of Figure 6)."""
    return NamedAqmFactory(PiAqm, **kwargs)


def pi2_factory(**kwargs) -> NamedAqmFactory:
    """Single-class PI2 (Figure 8)."""
    return NamedAqmFactory(Pi2Aqm, **kwargs)


def coupled_factory(**kwargs) -> NamedAqmFactory:
    """Coupled PI+PI2 single-queue AQM (Figure 9) — the paper's 'PI2'
    configuration in the coexistence experiments."""
    return NamedAqmFactory(CoupledPi2Aqm, **kwargs)


#: Name → zero-config factory, for table-driven benchmarks.
FACTORIES = {
    "taildrop": taildrop_factory,
    "pie": pie_factory,
    "bare-pie": bare_pie_factory,
    "pi": pi_factory,
    "pi2": pi2_factory,
    "coupled": coupled_factory,
}
