"""On-disk experiment result cache.

Re-running a figure script or benchmark repeats dozens of simulations
whose inputs have not changed.  This module keys each experiment by a
content hash of its **full configuration** plus a **fingerprint of the
simulator's source code**, and stores the frozen result
(:class:`~repro.harness.frozen.FrozenResult`) as a pickle under that key —
so a re-run skips straight to the read-outs, while *any* code edit or
config change (seed, duration, a fault schedule, one AQM gain) misses
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
treated as misses and deleted.  :class:`SharedResultCache` adds
``<root>/locks/<key>.lock`` (advisory per-key ``flock`` files for
cross-process single-flight) and ``<root>/events.log`` (append-only
compute/wait decision log); both are metadata only — the entry layout is
unchanged and fully interchangeable with the plain cache.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import time
import types
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Protocol, Tuple

try:  # file locks are POSIX-only; the shared cache degrades without them
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.harness.experiment import Experiment
from repro.harness.frozen import FrozenResult


class _TracerLike(Protocol):
    """The only slice of :class:`repro.obs.trace.Tracer` the cache uses
    (duck-typed; the harness never imports the observability layer)."""

    def emit(
        self, category: str, event: str, t: float, fields: Mapping[str, object]
    ) -> None:
        ...


__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "code_fingerprint",
    "describe_aqm_factory",
    "experiment_cache_key",
    "CacheStats",
    "ResultCache",
    "SharedCacheStats",
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
        f"faults={[repr(fault) for fault in experiment.faults]!r}",
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
        #: Optional span sink (:class:`~repro.obs.trace.Tracer`); the
        #: cache only emits into it (``cache_wait`` spans), never reads.
        self._tracer: Optional[_TracerLike] = None

    def set_tracer(self, tracer: "Optional[_TracerLike]") -> None:
        """Attach a tracer for ``harness`` spans (None detaches)."""
        self._tracer = tracer

    def register_metrics(self, registry: object) -> None:
        """Register the cache's counters under the ``cache.`` prefix.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`;
        the provider reports this instance's end-of-run stats (plus the
        single-flight tallies for :class:`SharedResultCache`).
        """
        registry.register_provider("cache", self._metrics_snapshot)

    def _metrics_snapshot(self) -> Dict[str, int]:
        """Flat metric values straight off the stats dataclass."""
        return {name: int(value) for name, value in vars(self.stats).items()}

    # -- keying ----------------------------------------------------------
    def key_for(self, experiment: Experiment) -> Optional[str]:
        """Delegates to :func:`experiment_cache_key`."""
        return experiment_cache_key(experiment)

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
        result = self._load(key)
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def _load(self, key: str) -> Optional[FrozenResult]:
        """Uncounted load: the shared cache's waiters poll through this.

        Corrupt entries are still logged, counted in ``stats.corrupt``
        and pruned; only the hit/miss tallies are left to :meth:`get`, so
        a polling waiter doesn't inflate them once per poll interval.
        """
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            self._drop_corrupt(path, f"{type(exc).__name__}: {exc}")
            return None
        if not isinstance(result, FrozenResult):
            self._drop_corrupt(
                path, f"expected FrozenResult, found {type(result).__name__}"
            )
            return None
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


@dataclass
class SharedCacheStats(CacheStats):
    """Counters for one :class:`SharedResultCache` instance.

    Extends the plain hit/miss/store tallies with the single-flight
    outcomes: ``computes`` (this process won the per-key lock and ran
    the simulation) and ``waits`` (another process held the lock, so
    this one polled for its result instead of duplicating the work).
    """

    waits: int = 0
    computes: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{CacheStats.__str__(self)} "
            f"computes={self.computes} waits={self.waits}"
        )


class SharedResultCache(ResultCache):
    """Cross-process single-flight wrapper over :class:`ResultCache`.

    N workers asked for the same :func:`experiment_cache_key` at the same
    moment (repeated-figure workloads, ``repro figure`` over overlapping
    grids, parallel sweeps that share cells) should simulate it **once**.
    :meth:`fetch_or_compute` takes a per-key ``flock`` under
    ``<root>/locks/``: the winner simulates and publishes the entry, the
    others sleep-poll until the entry appears and share it.  Everything
    is advisory and crash-safe — a lock dies with its holder's file
    descriptor, so a crashed winner simply promotes the next waiter to
    winner, and the store layout stays identical to the plain cache
    (entries remain valid for, and visible to, non-shared readers).

    Each process tallies its own :class:`SharedCacheStats`; the
    cross-process picture comes from an append-only event log
    (``<root>/events.log``, one ``compute``/``wait`` line per decision,
    written with ``O_APPEND`` so concurrent writers never interleave),
    summarised by :meth:`event_counts` — that is what the benchmarks
    assert single-flight dedup on.
    """

    #: How long a waiter sleeps between polls of the winner's entry.
    LOCK_POLL_INTERVAL = 0.05
    #: Give up waiting after this long and simulate anyway — a stuck
    #: winner (e.g. SIGSTOP'd) must never deadlock the whole sweep.
    LOCK_TIMEOUT = 600.0

    def __init__(self, root: os.PathLike | str = DEFAULT_CACHE_DIR):
        super().__init__(root)
        self.stats: SharedCacheStats = SharedCacheStats()

    def _lock_path(self, key: str) -> Path:
        return self.root / "locks" / f"{key}.lock"

    def _events_path(self) -> Path:
        return self.root / "events.log"

    def _log_event(self, kind: str, key: str) -> None:
        """Append one decision record; O_APPEND keeps writers atomic."""
        line = f"{kind} {key} {os.getpid()}\n".encode()
        try:
            fd = os.open(
                self._events_path(), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:  # pragma: no cover - event log is best-effort
            pass

    def event_counts(self) -> Dict[str, int]:
        """Aggregate ``compute``/``wait`` decisions across all processes."""
        counts: Dict[str, int] = {"compute": 0, "wait": 0}
        try:
            text = self._events_path().read_text()
        except OSError:
            return counts
        for line in text.splitlines():
            kind = line.split(" ", 1)[0]
            if kind in counts:
                counts[kind] += 1
        return counts

    def clear_events(self) -> None:
        """Reset the event log (benchmarks measure one workload at a time)."""
        try:
            self._events_path().unlink()
        except OSError:
            pass

    def in_flight(self, key: str) -> bool:
        """True when another process currently holds ``key``'s compute lock.

        A non-blocking scheduling probe: the per-key ``flock`` is tried
        and — if it was free — released immediately, so the probe never
        waits and never changes which process wins an ongoing
        computation.  Schedulers use it to submit in-flight cells *last*:
        a fleet regenerating the same figure then spends its workers on
        cells nobody else has claimed yet, and by the time the deferred
        cells come up the winner has usually published and they resolve
        as plain cache hits.  The answer is advisory (the lock state can
        change the instant this returns), which is fine — a stale answer
        costs at worst one ordinary wait in :meth:`fetch_or_compute`.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return False
        lock_path = self._lock_path(key)
        try:
            fd = os.open(lock_path, os.O_WRONLY)
        except OSError:
            # No lock file yet (or unreadable): nobody can be holding it.
            return False
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return True
            fcntl.flock(fd, fcntl.LOCK_UN)
            return False
        finally:
            os.close(fd)

    def fetch_or_compute(
        self, key: str, compute: Callable[[], Optional[FrozenResult]]
    ) -> Optional[FrozenResult]:
        """Return the entry for ``key``, simulating it at most once fleet-wide.

        ``compute`` must return the :class:`FrozenResult` to publish, or
        ``None`` for a failed run — failures are never cached, and the
        lock is released so another process can retry.  The fast path is
        one counted :meth:`get`; past it, the per-key lock decides who
        simulates and who waits.  Without ``fcntl`` (non-POSIX) every
        process just computes, preserving correctness without dedup.
        """
        result = self.get(key)
        if result is not None:
            return result
        return self._single_flight(key, compute)

    def _single_flight(
        self, key: str, compute: Callable[[], Optional[FrozenResult]]
    ) -> Optional[FrozenResult]:
        """:meth:`fetch_or_compute` past its fast path, for callers (the
        cell pipeline) that already probed this key with a counted get."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return self._compute(key, compute)
        lock_path = self._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return self._wait_for(key, fd, compute)
            # Lock won.  Double-check: the previous holder may have
            # published the entry between our miss and our acquisition.
            result = self._load(key)
            if result is not None:
                return result
            return self._compute(key, compute)
        finally:
            os.close(fd)  # also releases the flock if we hold it

    def _compute(
        self, key: str, compute: Callable[[], Optional[FrozenResult]]
    ) -> Optional[FrozenResult]:
        """Run ``compute`` as this key's winner; publish a success."""
        self.stats.computes += 1
        self._log_event("compute", key)
        result = compute()
        if result is not None:
            self.put(key, result)
        return result

    def _wait_for(
        self, key: str, fd: int, compute: Callable[[], Optional[FrozenResult]]
    ) -> Optional[FrozenResult]:
        """Poll for the winner's entry; inherit the lock if it dies.

        When a tracer is attached (:meth:`ResultCache.set_tracer`) the
        wait is reported as one ``cache_wait`` harness span carrying the
        polled wall-clock ``seconds`` and whether the entry was shared
        (``ok=True``) or this process inherited the computation.
        """
        self.stats.waits += 1
        self._log_event("wait", key)
        started = time.monotonic()
        deadline = started + self.LOCK_TIMEOUT
        while time.monotonic() < deadline:
            time.sleep(self.LOCK_POLL_INTERVAL)
            result = self._load(key)
            if result is not None:
                if self._tracer is not None:
                    self._tracer.emit("harness", "cache_wait", 0.0, {
                        "key": key[:12],
                        "ok": True,
                        "seconds": time.monotonic() - started,
                    })
                return result
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                continue
            # The winner released without publishing (failed or crashed
            # run): this process inherits the computation.
            result = self._load(key)
            if result is not None:
                return result
            if self._tracer is not None:
                self._tracer.emit("harness", "cache_wait", 0.0, {
                    "key": key[:12],
                    "ok": False,
                    "seconds": time.monotonic() - started,
                })
            return self._compute(key, compute)
        _log.warning(
            "shared-cache lock for %s held past %.0fs; computing anyway",
            key,
            self.LOCK_TIMEOUT,
        )
        return self._compute(key, compute)
