"""Charge a cProfile run's self time to the ``repro`` packages (layers).

The input is the ``stats`` mapping of a :class:`pstats.Stats`::

    {(filename, lineno, funcname): (cc, nc, tottime, cumtime, callers)}

where ``callers`` maps each calling function to the
``(cc, nc, tottime, cumtime)`` share of this function's numbers that came
from calls made by that caller.

Charging rule:

* a function defined under ``repro/<layer>/`` is charged to that layer;
  one defined elsewhere in ``repro`` (``analysis``, ``perf``, top-level
  modules) is charged to ``other``;
* a function outside ``repro`` (a C builtin, the standard library, NumPy)
  is charged to its callers, in proportion to the self time each caller
  edge carries; a caller that is itself outside ``repro`` passes its
  share on to its own callers in proportion to the inclusive time each
  of them spent in it, until a ``repro`` function is reached;
* time with no ``repro`` function anywhere above it goes to ``other``.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Mapping, Optional, Set, Tuple

#: The ``repro`` packages reported as layers, in report order.
LAYERS = ("sim", "net", "aqm", "core", "tcp", "traffic", "metrics", "harness", "obs")
OTHER = "other"
ALL = LAYERS + (OTHER,)

Func = Tuple[str, int, str]
Spread = Dict[str, float]

_REPRO = re.compile(r"(?:^|/)repro/(?:(\w+)/)?[^/]+\.py$")


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None when it is not ``repro``."""
    match = _REPRO.search(filename.replace(os.sep, "/"))
    if match is None:
        return None
    package = match.group(1)
    return package if package in LAYERS else OTHER


def _mix(edges, index: int, resolve) -> Spread:
    """Callers' spreads weighted by ``values[index]``, normalised to 1.

    A caller that resolves to nothing (it is only reachable through a
    cycle being resolved) drops out, and the rest are renormalised.
    """
    out: Spread = {}
    total = 0.0
    for caller, values in edges:
        spread = resolve(caller)
        if not spread or values[index] <= 0:
            continue
        total += values[index]
        for name, share in spread.items():
            out[name] = out.get(name, 0.0) + share * values[index]
    return {name: value / total for name, value in out.items()} if total else {}


class _Charger:
    """Resolves functions to layer spreads, memoised, cycle-safe."""

    def __init__(self, stats: Mapping[Func, tuple]):
        self.stats = stats
        self.memo: Dict[Func, Spread] = {}
        self.active: Set[Func] = set()

    def callers(self, func: Func):
        entry = self.stats.get(func)
        callers = entry[4] if entry is not None else {}
        return [(c, v) for c, v in callers.items() if c != func]

    def resolve(self, func: Func) -> Spread:
        """Where time spent in ``func`` belongs, as layer -> fraction.

        Empty when every caller is already being resolved (a cycle).
        """
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in self.memo:
            return self.memo[func]
        callers = self.callers(func)
        if not callers:
            return {OTHER: 1.0}
        edges = [(c, v) for c, v in callers if c not in self.active]
        self.active.add(func)
        try:
            out = _mix(edges, 3, self.resolve) or _mix(edges, 1, self.resolve)
        finally:
            self.active.discard(func)
        if len(edges) == len(callers):
            out = out or {OTHER: 1.0}
            self.memo[func] = out
        return out

    def self_time(self, func: Func) -> Spread:
        """Where the self time of the non-``repro`` ``func`` belongs."""
        self.active.add(func)
        try:
            out = _mix(self.callers(func), 2, self.resolve)
        finally:
            self.active.discard(func)
        return out or self.resolve(func) or {OTHER: 1.0}


def attribute(stats: Mapping[Func, tuple]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds per layer (every name in :data:`ALL`) and calls per layer.

    Calls count every call of a ``repro`` function, by its own layer; the
    :data:`OTHER` bucket has no call count.
    """
    seconds = {name: 0.0 for name in ALL}
    calls = {name: 0 for name in LAYERS}
    charger = _Charger(stats)
    for func, (_cc, nc, tottime, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            seconds[layer] += tottime
            if layer != OTHER:
                calls[layer] += nc
            continue
        for name, share in charger.self_time(func).items():
            seconds[name] += tottime * share
    return seconds, calls


def shares(seconds: Mapping[str, float]) -> Dict[str, float]:
    """Each layer's fraction of the total self time (sums to 1)."""
    total = sum(seconds.values())
    if total <= 0:
        raise ValueError("profile recorded no time")
    return {name: seconds.get(name, 0.0) / total for name in ALL}
