"""On-disk experiment result cache.

Re-running a figure script or benchmark repeats dozens of simulations
whose inputs have not changed.  This module keys each experiment by a
content hash of its **full configuration** plus a **fingerprint of the
simulator's source code**, and stores the frozen result
(:class:`~repro.harness.frozen.FrozenResult`) as a pickle under that key —
so a re-run skips straight to the read-outs, while *any* code edit or
config change (seed, duration, a capacity schedule, one AQM gain) misses
cleanly and re-simulates.

Keying
------
:func:`experiment_cache_key` canonicalises every field of
:class:`~repro.harness.experiment.Experiment` into a text description and
SHA-256 hashes it together with :func:`code_fingerprint` (a hash over the
``repro`` package's ``.py`` sources) and a schema version.  The AQM
factory is the one field that is code, not data; named factories
(:class:`~repro.harness.factories.NamedAqmFactory`) describe themselves
via ``cache_key()``, plain module-level functions are described by their
qualified name, and anything else (lambdas, closures) makes the
experiment **uncacheable** — the key is ``None`` and the runners simply
simulate as before.

Layout
------
``<root>/<key[:2]>/<key>.pkl``, written atomically (temp file + rename)
so a crashed run never leaves a truncated entry; unreadable entries are
treated as misses and deleted.  Two processes that store the same key at
once each write their own temp file and rename it over the entry: the
frozen result of a seeded cell is the same in every process, so the
entry ends up whole and equal (by ``digest()``) whichever rename lands
last.  The bytes match too when both ran the cell on the same backend;
a result that crossed a worker's pipe spells out some strings that an
inline one writes as pickle memo references.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import types
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness.experiment import Experiment
from repro.harness.frozen import FrozenResult

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "code_fingerprint",
    "describe_aqm_factory",
    "experiment_cache_key",
    "CacheStats",
    "ResultCache",
    "SharedResultCache",
]

#: Bumped whenever the frozen-result layout or keying scheme changes.
CACHE_SCHEMA = 1

_log = logging.getLogger("repro.harness.cache")

#: Where the CLI caches by default (overridable via $REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR", os.path.join("~", ".cache", "repro-pi2")
)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package's Python sources.

    Simulation results are a function of the code as much as of the
    config; folding this into every cache key makes each edit to the
    simulator invalidate the whole cache, which is exactly the safe
    default for a research codebase.  Computed once per process.
    """
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def describe_aqm_factory(factory: object) -> Optional[str]:
    """Stable textual identity of an AQM factory, or None if it has none.

    Priority: an explicit ``cache_key()`` method (named factories), then
    a plain module-level function's qualified name.  Closures and lambdas
    return None — their configuration is invisible, so caching them would
    risk silently serving results for a *different* configuration.
    """
    key = getattr(factory, "cache_key", None)
    if callable(key):
        return str(key())
    if isinstance(factory, types.FunctionType):
        if factory.__closure__ is None and "<" not in factory.__qualname__:
            return f"{factory.__module__}.{factory.__qualname__}"
    return None


def experiment_cache_key(experiment: Experiment) -> Optional[str]:
    """Content hash of one experiment, or None when it is uncacheable."""
    aqm = describe_aqm_factory(experiment.aqm_factory)
    if aqm is None:
        return None
    parts = [
        f"schema={CACHE_SCHEMA}",
        f"code={code_fingerprint()}",
        f"aqm={aqm}",
        f"capacity_bps={experiment.capacity_bps!r}",
        f"duration={experiment.duration!r}",
        f"warmup={experiment.warmup!r}",
        f"buffer_packets={experiment.buffer_packets!r}",
        f"seed={experiment.seed!r}",
        f"sample_period={experiment.sample_period!r}",
        f"record_sojourns={experiment.record_sojourns!r}",
        f"validate={experiment.validate!r}",
        f"max_events={experiment.max_events!r}",
        f"max_wall_seconds={experiment.max_wall_seconds!r}",
        f"flows={[repr(group) for group in experiment.flows]!r}",
        f"udp={[repr(group) for group in experiment.udp]!r}",
        f"capacity_schedule={list(experiment.capacity_schedule)!r}",
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance.

    ``corrupt`` counts entries that existed on disk but failed to load —
    each one is logged and treated as a miss (re-simulated), never served.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"hits={self.hits} misses={self.misses} "
            f"stores={self.stores} corrupt={self.corrupt}"
        )


class ResultCache:
    """Pickle-file store of frozen results under a content-hash key."""

    def __init__(self, root: os.PathLike | str = DEFAULT_CACHE_DIR):
        self.root = Path(root).expanduser()
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- access ----------------------------------------------------------
    def get(self, key: str) -> Optional[FrozenResult]:
        """Look up one entry; corrupt entries are logged and recomputed.

        A corrupt or unreadable entry (truncated write, schema drift,
        version skew, wrong object type) is never served: it is logged at
        WARNING level, counted in ``stats.corrupt``, removed from disk,
        and reported as a miss so the caller simply re-simulates.
        """
        path = self._path(key)
        result = None
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            pass
        except Exception as exc:
            self._drop_corrupt(path, f"{type(exc).__name__}: {exc}")
        else:
            if not isinstance(result, FrozenResult):
                self._drop_corrupt(
                    path, f"expected FrozenResult, found {type(result).__name__}"
                )
                result = None
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def _drop_corrupt(self, path: Path, reason: str) -> None:
        """Log, count and delete one unusable entry; callers see a miss."""
        _log.warning("corrupt cache entry %s (%s): recomputing", path, reason)
        self.stats.corrupt += 1
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, result: FrozenResult) -> None:
        """Store one entry atomically (temp file + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        finally:
            if tmp.exists():  # replace failed midway
                try:
                    tmp.unlink()
                except OSError:
                    pass
        self.stats.stores += 1

    # -- maintenance -----------------------------------------------------
    def verify(self, prune: bool = True) -> Tuple[int, List[str]]:
        """Scan every entry; return ``(ok_count, corrupt_descriptions)``.

        Each entry is fully unpickled and type-checked — the same
        validation a :meth:`get` performs, applied to the whole store.
        With ``prune=True`` (default) corrupt entries are deleted (and
        counted in ``stats.corrupt``); with ``prune=False`` they are only
        reported, so a read-only inspection never mutates the store.
        """
        ok = 0
        corrupt: List[str] = []
        if not self.root.exists():
            return ok, corrupt
        for path in sorted(self.root.glob("*/*.pkl")):
            try:
                with path.open("rb") as handle:
                    result = pickle.load(handle)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            else:
                if isinstance(result, FrozenResult):
                    ok += 1
                    continue
                reason = f"expected FrozenResult, found {type(result).__name__}"
            corrupt.append(f"{path}: {reason}")
            if prune:
                _log.warning("corrupt cache entry %s (%s): pruned", path, reason)
                self.stats.corrupt += 1
                try:
                    path.unlink()
                except OSError:
                    pass
        return ok, corrupt

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        # repro: allow[ORD] order-independent count; sorting would only add IO
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.exists():
            for path in sorted(self.root.glob("*/*.pkl")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ResultCache {self.root} entries={len(self)} {self.stats}>"


class SharedResultCache(ResultCache):
    """A plain :class:`ResultCache` under the name ``perf/e2e/child.py``
    imports, with the ``event_counts()`` it reads after each
    ``figures_jobs2`` batch; that import is its only reason to exist.

    Every fresh result is stored by the one process that runs the cell
    pipeline, so this instance's ``stats.stores`` is the number of cells
    it simulated.
    """

    def event_counts(self) -> Dict[str, int]:
        """``compute``: cells simulated and stored through this instance."""
        return {"compute": self.stats.stores, "wait": 0}
