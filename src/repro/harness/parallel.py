"""One cell pipeline: how every sweep, repetition and figure cell runs.

The paper's evaluation is a set of independent seeded cells — 25
link×RTT cells per AQM (Figures 15–18), 14 flow mixes (Figures 19–20),
six load/AQM pairs for Figure 11, five seeds per repetition.  The grid,
mix and repeat runners and every simulated figure hand their cells to
:func:`execute_tasks`, the only place a cell runs::

    key ─▶ journal replay ─▶ cache probe ─▶ in-flight reorder
        ─▶ backend: inline │ pool │ supervised
        ─▶ cache store ─▶ fsync'd journal append ─▶ RunReport

Caching, journaling and resume are therefore the same on every backend;
the backend only decides *where* the simulation runs.

How determinism is preserved
----------------------------
* Each cell's :class:`~repro.harness.experiment.Experiment` (including
  its seed) is constructed by the caller and shipped whole — a backend
  never derives configuration.
* Results are reassembled **in task order** whatever the completion
  order, so the outcome list is identical for every backend and ``jobs``.
* A simulation's randomness comes only from its seeded streams, never
  from which process or core ran it.
* A result is frozen (:mod:`repro.harness.frozen`) only to be stored or
  to cross a process; the inline route without a cache or journal
  returns the live :class:`~repro.harness.experiment.ExperimentResult`.

Experiments built from the named factories in
:mod:`repro.harness.factories` are picklable; hand-rolled lambda
factories are not, and are rejected with a pointer at the fix rather than
a bare :class:`pickle.PicklingError` from deep inside the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, ParallelExecutionError
from repro.harness.cache import (
    ResultCache,
    SharedResultCache,
    experiment_cache_key,
)
from repro.harness.experiment import Experiment, ExperimentResult, run_experiment
from repro.harness.frozen import FrozenResult, freeze_result
from repro.harness.journal import ResultJournal
from repro.harness.resilience import (
    Attempt,
    RecoveryAction,
    RunFailure,
    current_worker,
    format_recovery_report,
    run_with_retries,
)

if TYPE_CHECKING:  # pragma: no cover - the supervisor imports this module
    from repro.harness.supervisor import SupervisorConfig

__all__ = [
    "SweepTask",
    "TaskResult",
    "RunReport",
    "resolve_jobs",
    "execute_tasks",
]

#: What execute_tasks yields per task: exactly one side is non-None.
TaskResult = Tuple[
    Optional[Union[ExperimentResult, FrozenResult]], Optional[RunFailure]
]


@dataclass(frozen=True)
class SweepTask:
    """One independent cell of a sweep: a label for reports + its config."""

    label: str
    experiment: Experiment


@dataclass
class RunReport:
    """What one :func:`execute_tasks` call did beyond running its cells.

    ``executed`` cells were simulated, ``replayed`` came from the journal
    (resume), ``cache_hits`` from the result cache; ``journal_appends``
    and ``compactions`` describe journal activity, and ``deferred``
    counts cells moved to the back because another process held them in
    flight in the shared cache.  ``torn_journal`` is True when resume
    found (and tolerated) a crash-torn final record.  The supervised
    backend adds its recovery log (``actions``: kills, retries, seed
    bumps, degradation), ``degraded`` and the ``heartbeats`` it saw.
    """

    actions: List[RecoveryAction] = field(default_factory=list)
    executed: int = 0
    replayed: int = 0
    cache_hits: int = 0
    journal_appends: int = 0
    compactions: int = 0
    deferred: int = 0
    heartbeats: int = 0
    degraded: bool = False
    torn_journal: bool = False

    def record(self, action: RecoveryAction) -> None:
        """Append one recovery action to the log."""
        self.actions.append(action)

    def summary(self) -> str:
        """One-line counter summary for CLI output."""
        parts = [
            f"executed={self.executed}",
            f"replayed={self.replayed}",
            f"cache_hits={self.cache_hits}",
            f"journal_appends={self.journal_appends}",
        ]
        if self.compactions:
            parts.append(f"compactions={self.compactions}")
        if self.deferred:
            parts.append(f"deferred={self.deferred}")
        if self.torn_journal:
            parts.append("torn_journal=yes")
        if self.degraded:
            parts.append("DEGRADED-TO-SERIAL")
        return " ".join(parts)

    def format_actions(self) -> str:
        """Human-readable recovery log (see ``format_recovery_report``)."""
        return format_recovery_report(self.actions)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: None → 1 (serial), 0 → one per CPU."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(
            f"jobs must be positive, 0 (one per CPU) or None (serial); "
            f"got {jobs}"
        )
    return jobs


def _start_method() -> str:
    """Prefer fork (fast, inherits sys.path — test-defined factories
    pickle by reference); fall back to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _failure(label: str, seed: int, exc: Exception) -> RunFailure:
    """One-attempt failure record for an exception raised in this process."""
    worker = current_worker()
    return RunFailure(
        label=label,
        seeds_tried=(seed,),
        error_type=type(exc).__name__,
        error=str(exc),
        sim_time=getattr(exc, "sim_time", None),
        component=getattr(exc, "component", None),
        attempts=(
            Attempt(
                seed=seed,
                kind="exception",
                error_type=type(exc).__name__,
                error=str(exc),
                worker=worker,
            ),
        ),
        worker=worker,
    )


def _run_cell(task: SweepTask, key: Optional[str], retries: int,
              capture: bool, freeze: bool, cache=None, tracer=None):
    """Simulate one cell in this process (inline backend and pool workers).

    ``retries > 0`` runs :func:`run_with_retries`, which traces the
    first attempt only (retries on bumped seeds are diagnostics, not
    trace subjects).  Otherwise the run is traced, and its exception
    either becomes a :class:`~repro.harness.resilience.RunFailure`
    (``capture``) or propagates.  A :class:`SharedResultCache` routes
    the simulation through its per-key single-flight lock, which also
    stores the result, so identical cells in concurrent processes are
    computed once.
    """
    failure = None

    def compute():
        nonlocal failure
        if retries:
            result, failure = run_with_retries(
                task.experiment, label=task.label, max_retries=retries,
                tracer=tracer,
            )
        else:
            try:
                result = run_experiment(task.experiment, tracer=tracer)
            except Exception as exc:
                if not capture:
                    raise
                result, failure = None, _failure(
                    task.label, task.experiment.seed, exc
                )
        return freeze_result(result) if freeze and result is not None else result

    if isinstance(cache, SharedResultCache) and key is not None:
        # The pipeline already probed (one counted miss); go straight to
        # the lock, which re-checks for an entry published meanwhile.
        result = cache._single_flight(key, compute)
    else:
        result = compute()
    return result, failure


def _pool_cell(payload):
    """Pool worker body: one cell, frozen, failures captured not raised —
    an exception would tear down the map and lose every sibling's work."""
    index, task, key, retries, shared_root = payload
    cache = SharedResultCache(shared_root) if shared_root is not None else None
    return (index, *_run_cell(task, key, retries, True, True, cache))


def _check_picklable(tasks: Sequence[SweepTask]) -> None:
    for task in tasks:
        try:
            pickle.dumps(task.experiment)
        except Exception as exc:
            raise ConfigError(
                f"experiment for {task.label!r} cannot be pickled for parallel "
                f"execution ({type(exc).__name__}: {exc}); use the named AQM "
                f"factories from repro.harness.factories (picklable) or run "
                f"with jobs=1"
            ) from exc


def _defer_in_flight(
    pending: List[int],
    keys: List[Optional[str]],
    cache: SharedResultCache,
    report: RunReport,
    emit,
) -> List[int]:
    """Reorder submission so in-flight cells run last (shared cache only).

    Another process over the same :class:`SharedResultCache` may already
    be computing some of these cells (its per-key lock is held).
    Running those first would make our workers sleep-poll on the remote
    winner while unclaimed cells wait behind them; running them *last*
    lets the fleet compute each cell once with every worker busy, and by
    the time the deferred cells run the winner has usually published.
    Only the order changes: results are reassembled by task index, so
    the returned list (and every digest built from it) is bit-identical.
    When every cell is in flight the order is unchanged — deferral never
    starves work.
    """
    in_flight = [
        i for i in pending
        if keys[i] is not None and cache.in_flight(keys[i])
    ]
    if not in_flight:
        return pending
    report.deferred += len(in_flight)
    if emit is not None:
        emit("harness", "cache_deferred", 0.0, {"tasks": len(in_flight)})
    deferred = set(in_flight)
    return [i for i in pending if i not in deferred] + in_flight


def execute_tasks(
    tasks: Sequence[SweepTask],
    *,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    max_retries: int = 1,
    cache: Optional[ResultCache] = None,
    tracer: Optional[object] = None,
    journal: Optional[Union[ResultJournal, str, os.PathLike]] = None,
    resume: bool = False,
    supervisor: Optional[SupervisorConfig] = None,
    report: Optional[RunReport] = None,
) -> List[TaskResult]:
    """Run every task through the cell pipeline; results in task order.

    Returns one ``(result, failure)`` pair per task **in task order**.
    The backend is the supervisor when ``supervisor`` (a
    :class:`~repro.harness.supervisor.SupervisorConfig`) is given, a
    process pool when ``jobs`` resolves to more than one worker (see
    :func:`resolve_jobs`: None is serial, 0 is one per CPU), and this
    process otherwise.

    ``cache`` (a :class:`~repro.harness.cache.ResultCache`) is probed
    once per cell and filled with every fresh result.  ``journal`` (a
    :class:`~repro.harness.journal.ResultJournal` or a path) makes each
    completed cell durable — fsync'd as it finishes, whichever backend
    ran it — and ``resume=True`` replays journaled cells instead of
    re-executing them.  ``report`` (when provided) is filled with the
    counters and recovery log.

    ``on_error="capture"`` retries a failing cell on ``max_retries``
    bumped seeds and returns a
    :class:`~repro.harness.resilience.RunFailure` in its slot.  With
    ``"raise"`` an inline cell's exception propagates as it happens;
    the pool and supervised backends run every cell to completion (so
    the journal keeps all that can finish) and then the first failure in
    task order raises :class:`~repro.errors.ParallelExecutionError`.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) receives ``harness``
    spans from this process — ``journal_hit``/``cache_hit`` per
    served cell, ``task_start``/``task_done`` per executed cell,
    ``journal_append``, ``cache_deferred``, ``pool_map``, and the
    supervisor's ``task_retry`` — and, on the inline route, the
    simulation's AQM/engine events (with ``on_error="capture"``, of each
    cell's first attempt).  Worker processes run untraced (a
    JSONL sink cannot cross the process boundary).  Results are
    bit-exact with tracing on or off.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture' (got {on_error!r})")
    if max_retries < 0:
        raise ConfigError(f"max_retries cannot be negative (got {max_retries})")
    if resume and journal is None:
        raise ConfigError("resume=True requires a journal")
    report = report if report is not None else RunReport()
    own_journal = journal is not None and not isinstance(journal, ResultJournal)
    journal_obj = ResultJournal(journal) if own_journal else journal
    try:
        out = _pipeline(
            list(tasks), resolve_jobs(jobs),
            max_retries if on_error == "capture" else 0, on_error == "capture",
            cache, tracer, journal_obj, resume, supervisor, report,
        )
    finally:
        if own_journal:
            journal_obj.close()
    if on_error == "raise":
        for _result, failure in out:
            if failure is not None:
                raise ParallelExecutionError(
                    f"sweep cell failed: {failure}",
                    label=failure.label,
                    error_type=failure.error_type,
                    sim_time=failure.sim_time,
                    component=failure.component,
                )
    return out


def _pipeline(tasks, n_jobs, retries, capture, cache, tracer, journal,
              resume, supervisor, report) -> List[TaskResult]:
    """The steps of :func:`execute_tasks` after argument handling."""
    emit = tracer.emit if tracer is not None else None
    out: List[Optional[TaskResult]] = [None] * len(tasks)
    keyed = cache is not None or journal is not None
    keys = [experiment_cache_key(t.experiment) if keyed else None for t in tasks]
    shared = isinstance(cache, SharedResultCache)
    compactions = journal.compactions if journal is not None else 0

    def store(index: int, result, cached: bool) -> None:
        """Cache store + fsync'd journal append for one completed cell."""
        key = keys[index]
        if key is None:
            return
        if cache is not None and not cached:
            cache.put(key, result)
        if journal is not None:
            started = time.monotonic()
            journal.append(key, tasks[index].label, result)
            report.journal_appends += 1
            if emit is not None:
                emit("harness", "journal_append", 0.0, {
                    "label": tasks[index].label,
                    "seconds": time.monotonic() - started,
                })

    def done(index: int, result, failure, cached: bool = False) -> None:
        """Completion step every backend calls as each cell finishes."""
        out[index] = (result, failure)
        if result is not None:
            report.executed += 1
            store(index, result, cached)

    replay = {}
    if resume:
        journal_replay = journal.read()
        replay = journal_replay.replay_map()
        report.torn_journal = journal_replay.torn
    pending: List[int] = []
    for index, task in enumerate(tasks):
        key = keys[index]
        if key in replay:
            out[index] = (replay[key], None)
            report.replayed += 1
            if emit is not None:
                emit("harness", "journal_hit", 0.0, {"label": task.label})
            continue
        hit = cache.get(key) if cache is not None and key is not None else None
        if hit is None:
            pending.append(index)
            continue
        out[index] = (hit, None)
        report.cache_hits += 1
        if emit is not None:
            emit("harness", "cache_hit", 0.0, {"label": task.label})
        store(index, hit, cached=True)

    if shared and len(pending) > 1:
        pending = _defer_in_flight(pending, keys, cache, report, emit)
    if pending and supervisor is not None:
        from repro.harness.supervisor import _Supervisor

        _check_picklable([tasks[i] for i in pending])
        _Supervisor(tasks, pending, n_jobs, retries, supervisor, report,
                    emit, done).run()
    elif pending and n_jobs > 1:
        _check_picklable([tasks[i] for i in pending])
        # Shared caches push the store (under the single-flight lock)
        # down into the workers; plain caches keep the parent-side put.
        root = str(cache.root) if shared else None
        payloads = [(i, tasks[i], keys[i], retries, root) for i in pending]
        workers = min(n_jobs, len(pending))
        if emit is not None:
            for i in pending:
                emit("harness", "task_start", 0.0,
                     {"label": tasks[i].label, "backend": "pool"})
        started = time.monotonic()
        ctx = multiprocessing.get_context(_start_method())
        with ctx.Pool(processes=workers) as pool:
            # imap_unordered: each cell is stored and journaled the moment
            # it lands, so a kill mid-figure loses only unfinished cells.
            for index, result, failure in pool.imap_unordered(
                _pool_cell, payloads, chunksize=1
            ):
                if emit is not None:
                    emit("harness", "task_done", 0.0,
                         {"label": tasks[index].label, "ok": result is not None})
                done(index, result, failure, cached=shared)
        if emit is not None:
            emit("harness", "pool_map", 0.0, {
                "tasks": len(pending),
                "jobs": workers,
                "seconds": time.monotonic() - started,
            })
    else:
        for index in pending:
            task = tasks[index]
            if emit is not None:
                emit("harness", "task_start", 0.0,
                     {"label": task.label, "backend": "serial"})
            started = time.monotonic()
            result, failure = _run_cell(
                task, keys[index], retries, capture, keys[index] is not None,
                cache, tracer,
            )
            if emit is not None:
                emit("harness", "task_done", 0.0, {
                    "label": task.label,
                    "ok": result is not None,
                    "seconds": time.monotonic() - started,
                })
            done(index, result, failure, cached=shared)
    if journal is not None:
        report.compactions += journal.compactions - compactions
    # Every slot was filled above (replay, cache hit, or a backend).
    return out  # type: ignore[return-value]
