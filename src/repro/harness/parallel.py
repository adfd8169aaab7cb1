"""One cell pipeline: how every sweep, repetition and figure cell runs.

The paper's evaluation is a set of independent seeded cells — 25
link×RTT cells per AQM (Figures 15–18), 14 flow mixes (Figures 19–20),
six load/AQM pairs for Figure 11, five seeds per repetition.  The grid,
mix and repeat runners and every simulated figure hand their cells to
:func:`execute_tasks`, the only place a cell runs::

    key ─▶ journal replay ─▶ cache probe ─▶ in-flight reorder
        ─▶ backend: inline │ supervised workers
        ─▶ cache store ─▶ fsync'd journal append ─▶ RunReport

Caching, journaling and resume are therefore the same on every backend;
the backend only decides *where* the simulation runs.  Either way a
cell's simulation goes through :func:`_run_cell`, in this process or in
a supervised worker (:mod:`repro.harness.supervisor`).

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
* A cell's key names its declared seed, so only that seed's result is
  cached or journaled under it.  A result from a bumped seed (a
  ``capture`` retry) goes to the caller and into the report's log, and
  nowhere else: a later run of the cell must not be served it.

Experiments built from the named factories in
:mod:`repro.harness.factories` are picklable; hand-rolled lambda
factories are not, and are rejected with a pointer at the fix rather than
a bare :class:`pickle.PicklingError` from a worker.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

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
    found (and tolerated) a crash-torn final record.  ``actions`` is
    the recovery log: on every backend, a ``"seed-bumped result"`` entry
    for each cell whose result came from a bumped seed (the detail names
    that seed); the supervised backend adds its kills, retries and
    degradation, ``degraded`` and the ``heartbeats`` it saw.
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


def _worker_count(jobs: Optional[int], task_timeout: Optional[float],
                  heartbeat_timeout: Optional[float]) -> int:
    """Supervised workers :func:`execute_tasks` runs cells on: ``jobs``
    resolved, when that is more than one or a timeout is given (a
    timeout needs a worker to kill); otherwise 0, for inline."""
    n_jobs = resolve_jobs(jobs)
    if n_jobs > 1 or task_timeout is not None or heartbeat_timeout is not None:
        return n_jobs
    return 0


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
    """Simulate one cell in this process: the inline backend's body, and
    each attempt in a supervised worker or the supervisor's degraded mode.

    ``retries > 0`` runs :func:`run_with_retries`, which traces the
    first attempt only (retries on bumped seeds are diagnostics, not
    trace subjects).  Otherwise the run is traced, and its exception
    either becomes a :class:`~repro.harness.resilience.RunFailure`
    (``capture``) or propagates.  A :class:`SharedResultCache` routes
    the simulation through its per-key single-flight lock, which also
    stores the result, so identical cells in concurrent processes are
    computed once; it never stores a bumped seed's result under ``key``.
    """
    failure = None
    bumped = None

    def compute():
        nonlocal failure, bumped
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
        if freeze and result is not None:
            result = freeze_result(result)
        if result is not None and result.experiment.seed != task.experiment.seed:
            # Not this key's result: kept from the single-flight store.
            bumped = result
            return None
        return result

    if isinstance(cache, SharedResultCache) and key is not None:
        # The pipeline already probed (one counted miss); go straight to
        # the lock, which re-checks for an entry published meanwhile.
        result = cache._single_flight(key, compute)
    else:
        result = compute()
    return (result if bumped is None else bumped), failure


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
    task_timeout: Optional[float] = None,
    heartbeat_timeout: Optional[float] = None,
    report: Optional[RunReport] = None,
) -> List[TaskResult]:
    """Run every task through the cell pipeline; results in task order.

    Returns one ``(result, failure)`` pair per task **in task order**.
    Cells run in supervised worker processes
    (:mod:`repro.harness.supervisor`) when ``jobs`` resolves to more
    than one worker (see :func:`resolve_jobs`: None is serial, 0 is one
    per CPU) or a timeout is given, and in this process otherwise.  A
    worker that crashes (SIGKILL, OOM) is retried on the same seed;
    ``task_timeout`` kills and retries an attempt running longer than
    that many wall-clock seconds, and ``heartbeat_timeout`` one whose
    worker has been silent that long.

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
    supervised workers run every cell to completion (so the journal
    keeps all that can finish) and then the first failure in task order
    raises :class:`~repro.errors.ParallelExecutionError`.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) receives ``harness``
    spans from this process — ``journal_hit``/``cache_hit`` per
    served cell, ``task_start``/``task_done`` per executed cell,
    ``journal_append``, ``cache_deferred`` and the supervisor's
    ``task_retry`` — and, on the inline route, the simulation's
    AQM/engine events (with ``on_error="capture"``, of each cell's first
    attempt).  Worker processes run untraced (a JSONL sink cannot cross
    the process boundary).  Results are bit-exact with tracing on or off.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture' (got {on_error!r})")
    if max_retries < 0:
        raise ConfigError(f"max_retries cannot be negative (got {max_retries})")
    for name, value in (("task_timeout", task_timeout),
                        ("heartbeat_timeout", heartbeat_timeout)):
        if value is not None and not value > 0:
            raise ConfigError(f"{name} must be positive or None (got {value})")
    if resume and journal is None:
        raise ConfigError("resume=True requires a journal")
    workers = _worker_count(jobs, task_timeout, heartbeat_timeout)
    report = report if report is not None else RunReport()
    own_journal = journal is not None and not isinstance(journal, ResultJournal)
    journal_obj = ResultJournal(journal) if own_journal else journal
    try:
        out = _pipeline(
            list(tasks), workers,
            max_retries if on_error == "capture" else 0, on_error == "capture",
            cache, tracer, journal_obj, resume, task_timeout,
            heartbeat_timeout, report,
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


def _pipeline(tasks, workers, retries, capture, cache, tracer, journal,
              resume, task_timeout, heartbeat_timeout,
              report) -> List[TaskResult]:
    """The steps of :func:`execute_tasks` after argument handling;
    ``workers`` is the supervised worker count, 0 to run inline."""
    emit = tracer.emit if tracer is not None else None
    out: List[Optional[TaskResult]] = [None] * len(tasks)
    keyed = cache is not None or journal is not None
    keys = [experiment_cache_key(t.experiment) if keyed else None for t in tasks]
    # A shared cache stores each result under its single-flight lock,
    # wherever the cell ran; a plain cache is filled here.
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

    def done(index: int, result, failure) -> None:
        """Completion step every backend calls as each cell finishes."""
        out[index] = (result, failure)
        if result is None:
            return
        report.executed += 1
        seed, declared = result.experiment.seed, tasks[index].experiment.seed
        if seed == declared:
            store(index, result, cached=shared)
            return
        report.record(RecoveryAction(
            label=tasks[index].label,
            action="seed-bumped result",
            detail=f"produced by seed {seed}, not the declared {declared}; "
                   f"returned, not cached or journaled",
        ))

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
    if pending and workers:
        from repro.harness.supervisor import _Supervisor

        _check_picklable([tasks[i] for i in pending])
        _Supervisor(tasks, pending, keys, cache if shared else None, workers,
                    retries, task_timeout, heartbeat_timeout, report, emit,
                    done).run()
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
            done(index, result, failure)
    if journal is not None:
        report.compactions += journal.compactions - compactions
    # Every slot was filled above (replay, cache hit, or a backend).
    return out  # type: ignore[return-value]
