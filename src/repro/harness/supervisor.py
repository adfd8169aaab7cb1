"""Supervised backend: watchdogged workers that survive process failure.

:func:`~repro.harness.parallel.execute_tasks` runs every cell through
one pipeline — journal replay, cache probe, backend, cache store,
journal append.  A ``multiprocessing`` pool is a brittle backend: a
worker that hangs stalls the whole map, and a worker the kernel
SIGKILLs (OOM) loses its task forever.  Passing
``supervisor=SupervisorConfig(...)`` to ``execute_tasks`` (or to any
sweep, repetition or figure) selects this backend instead:

* **process-per-task isolation** — each attempt runs in its own forked
  worker, so a crash is observable (pipe EOF + exit code) instead of
  wedging a shared pool;
* **per-task wall-clock timeouts** and **worker heartbeats** — a hung or
  frozen worker is killed and the task retried, rather than stalling the
  sweep;
* **bounded retry with exponential backoff**: simulation exceptions
  retry on deterministically bumped seeds (the exact
  :data:`~repro.harness.resilience.RETRY_SEED_STRIDE` sequence of the
  inline backend, bounded by the same ``max_retries``), while
  process-level failures — timeout, SIGKILL, stalled heartbeats — retry
  the *same* seed, because the cause was external and determinism
  demands the rerun be identical;
* **graceful degradation to serial execution** after repeated spawn
  failures — if workers cannot even be spawned, the sweep finishes
  in-process rather than dying;
* every recovery action is recorded on the run's
  :class:`~repro.harness.parallel.RunReport`, and terminal failures
  carry the full :class:`~repro.harness.resilience.Attempt` history and
  worker identity.

Caching, journaling and resume belong to the pipeline, so they behave
the same here as on the inline and pool backends, and a fixed seed
gives bit-identical outcomes serial, pooled, supervised,
interrupted-and-resumed, or degraded.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, replace
from multiprocessing import connection
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.harness.frozen import freeze_result
from repro.harness.parallel import SweepTask, _start_method
from repro.harness.resilience import (
    RETRY_SEED_STRIDE,
    Attempt,
    RecoveryAction,
    RunFailure,
    current_worker,
)

__all__ = ["SupervisorConfig"]

#: Scheduler poll period: how often timeouts/heartbeats are re-checked.
_TICK_SECONDS = 0.05


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervised execution backend.

    ``task_timeout`` is the per-*attempt* wall-clock budget (None =
    unlimited).  Heartbeats are always emitted by workers every
    ``heartbeat_interval`` seconds; staleness only kills a worker when
    ``heartbeat_timeout`` is set (a process can be alive but frozen —
    e.g. SIGSTOP — which a timeout alone would catch much later).

    Seed-bump retries after simulation exceptions are bounded by the
    pipeline's ``max_retries`` (one knob for every backend);
    ``max_task_failures`` bounds same-seed retries after process-level
    failures, with exponential backoff ``backoff_base *
    backoff_factor**n`` capped at ``backoff_max``.  After
    ``max_pool_failures`` consecutive worker-spawn failures the backend
    degrades to in-process serial execution for the rest of the sweep.
    """

    task_timeout: Optional[float] = None
    heartbeat_interval: float = 0.5
    heartbeat_timeout: Optional[float] = None
    max_task_failures: int = 2
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    max_pool_failures: int = 3

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigError(
                f"task_timeout must be positive or None (got {self.task_timeout})"
            )
        if self.heartbeat_interval <= 0:
            raise ConfigError(
                f"heartbeat_interval must be positive (got {self.heartbeat_interval})"
            )
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ConfigError(
                f"heartbeat_timeout must be positive or None "
                f"(got {self.heartbeat_timeout})"
            )
        if self.max_task_failures < 0:
            raise ConfigError(
                f"max_task_failures cannot be negative (got {self.max_task_failures})"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ConfigError(
                "backoff parameters must satisfy base >= 0, factor >= 1, max >= 0"
            )
        if self.max_pool_failures < 1:
            raise ConfigError(
                f"max_pool_failures must be at least 1 (got {self.max_pool_failures})"
            )


def _supervised_worker(conn, experiment, heartbeat_interval: float) -> None:
    """Worker body: heartbeat thread + one experiment, reported by pipe.

    Sends ``("hb",)`` every ``heartbeat_interval`` seconds from a daemon
    thread, then exactly one of ``("ok", frozen_result)`` or
    ``("err", (type_name, message, sim_time, component))``.  A SIGKILL
    leaves the pipe closed with neither — which is precisely how the
    parent recognises a crash.
    """
    import threading

    send_lock = threading.Lock()
    stop = threading.Event()

    def send(message) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # parent went away
                pass

    def beat() -> None:
        while not stop.is_set():
            send(("hb",))
            stop.wait(heartbeat_interval)

    heartbeat = threading.Thread(target=beat, daemon=True)
    heartbeat.start()
    try:
        from repro.harness.experiment import run_experiment

        result = run_experiment(experiment)
        frozen = freeze_result(result)
        stop.set()
        send(("ok", frozen))
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        stop.set()
        send(
            (
                "err",
                (
                    type(exc).__name__,
                    str(exc),
                    getattr(exc, "sim_time", None),
                    getattr(exc, "component", None),
                ),
            )
        )
    finally:
        conn.close()


def _start_worker(ctx, state: "_TaskState", config: SupervisorConfig) -> "_Worker":
    """Spawn one worker process for one attempt (monkeypatchable seam)."""
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    experiment = replace(state.task.experiment, seed=state.seed)
    process = ctx.Process(
        target=_supervised_worker,
        args=(child_conn, experiment, config.heartbeat_interval),
        daemon=True,
    )
    process.start()
    child_conn.close()
    now = time.monotonic()
    deadline = (
        now + config.task_timeout if config.task_timeout is not None else None
    )
    return _Worker(
        state=state,
        process=process,
        conn=parent_conn,
        started=now,
        last_heartbeat=now,
        deadline=deadline,
    )


class _TaskState:
    """Mutable retry bookkeeping for one task across its attempts."""

    __slots__ = (
        "index", "task", "seed", "bumps", "proc_failures", "attempts", "not_before",
    )

    def __init__(self, index: int, task: SweepTask):
        self.index = index
        self.task = task
        self.seed = task.experiment.seed
        self.bumps = 0
        self.proc_failures = 0
        self.attempts: List[Attempt] = []
        self.not_before = 0.0


class _Worker:
    """One live worker process and the supervision state around it."""

    __slots__ = ("state", "process", "conn", "started", "last_heartbeat", "deadline")

    def __init__(self, state, process, conn, started, last_heartbeat, deadline):
        self.state = state
        self.process = process
        self.conn = conn
        self.started = started
        self.last_heartbeat = last_heartbeat
        self.deadline = deadline

    @property
    def identity(self) -> str:
        """Worker identity for reports (``pid:<n>``)."""
        return f"pid:{self.process.pid}"

    def kill(self) -> None:
        """Hard-stop the worker and reap it."""
        try:
            self.process.kill()
        except (OSError, ValueError):  # already gone / never started
            pass
        self.process.join(timeout=5.0)
        self.conn.close()

    def reap(self) -> None:
        """Join a worker that finished on its own."""
        self.process.join(timeout=5.0)
        self.conn.close()


class _Supervisor:
    """The backend: slots, deadlines, retries, degradation.

    Runs ``tasks[i]`` for every ``i`` in ``pending`` and hands each
    finished cell to ``done(index, result, failure)`` — the pipeline's
    store-and-journal step — the moment it completes.  ``retries`` is
    the pipeline's seed-bump budget (0 unless ``on_error="capture"``).
    """

    def __init__(self, tasks, pending, n_jobs, retries, config, report,
                 emit, done):
        self.n_jobs = n_jobs
        self.retries = retries
        self.config = config
        self.report = report
        #: Fire-and-forget span sink (None = tracing off).  The
        #: supervisor only ever *emits* into it; no tracer output feeds
        #: scheduling decisions.
        self.emit = emit
        self.done = done
        self.queue: List[_TaskState] = [_TaskState(i, tasks[i]) for i in pending]
        self.running: Dict[object, _Worker] = {}
        self.pool_failures = 0

    # -- completion paths ------------------------------------------------
    def _finish_success(self, state: _TaskState, result) -> None:
        if self.emit is not None:
            self.emit("harness", "task_done", 0.0, {
                "label": state.task.label,
                "ok": True,
                "seed": state.seed,
                "attempts": len(state.attempts) + 1,
            })
        if state.attempts:
            self.report.record(
                RecoveryAction(
                    label=state.task.label,
                    action="recovered",
                    detail=f"succeeded on attempt {len(state.attempts) + 1} "
                           f"(seed {state.seed})",
                )
            )
        self.done(state.index, result, None)

    def _finish_failure(self, state: _TaskState, error_type: str, error: str,
                        sim_time=None, component=None, worker=None) -> None:
        if self.emit is not None:
            self.emit("harness", "task_done", 0.0, {
                "label": state.task.label,
                "ok": False,
                "error_type": error_type,
                "sim_time": sim_time,
            })
        self.done(
            state.index,
            None,
            RunFailure(
                label=state.task.label,
                seeds_tried=tuple(a.seed for a in state.attempts),
                error_type=error_type,
                error=error,
                sim_time=sim_time,
                component=component,
                attempts=tuple(state.attempts),
                worker=worker,
            ),
        )

    # -- retry policy (the one place deciding what failure costs) --------
    def _attempt_failed(self, state: _TaskState, kind: str, error_type: str,
                        error: str, worker: Optional[str],
                        sim_time=None, component=None) -> None:
        """Record one failed attempt and either requeue or finalise."""
        now = time.monotonic()
        if kind == "exception":
            retry = state.bumps < self.retries
            backoff = 0.0
        else:
            retry = state.proc_failures < self.config.max_task_failures
            backoff = min(
                self.config.backoff_base
                * self.config.backoff_factor ** state.proc_failures,
                self.config.backoff_max,
            ) if retry else 0.0
        state.attempts.append(
            Attempt(
                seed=state.seed,
                kind=kind,
                error_type=error_type,
                error=error,
                worker=worker,
                backoff_s=backoff,
            )
        )
        if not retry:
            self._finish_failure(
                state, error_type, error,
                sim_time=sim_time, component=component, worker=worker,
            )
            return
        if kind == "exception":
            state.bumps += 1
            state.seed = (
                state.task.experiment.seed + state.bumps * RETRY_SEED_STRIDE
            )
            detail = (
                f"seed-bump retry {state.bumps}/{self.retries} "
                f"(seed {state.seed}) after {error_type}"
            )
        else:
            state.proc_failures += 1
            state.not_before = now + backoff
            detail = (
                f"same-seed retry {state.proc_failures}/"
                f"{self.config.max_task_failures} after {kind} "
                f"(backoff {backoff:.2g}s)"
            )
        self.report.record(
            RecoveryAction(
                label=state.task.label, action=f"retry after {kind}",
                detail=detail, worker=worker,
            )
        )
        if self.emit is not None:
            self.emit("harness", "task_retry", 0.0, {
                "label": state.task.label,
                "kind": kind,
                "error_type": error_type,
                "seed": state.seed,
                "sim_time": sim_time,
                "seconds": backoff,
            })
        self.queue.append(state)

    # -- worker lifecycle ------------------------------------------------
    def _spawn(self, ctx, state: _TaskState) -> bool:
        """Start one attempt; returns False on a spawn (pool) failure."""
        try:
            worker = _start_worker(ctx, state, self.config)
        except (OSError, RuntimeError) as exc:
            self.pool_failures += 1
            self.report.record(
                RecoveryAction(
                    label=state.task.label,
                    action="spawn failed",
                    detail=f"{type(exc).__name__}: {exc} "
                           f"({self.pool_failures}/{self.config.max_pool_failures} "
                           f"consecutive)",
                )
            )
            state.not_before = time.monotonic() + self.config.backoff_base
            self.queue.insert(0, state)
            if self.pool_failures >= self.config.max_pool_failures:
                self.report.degraded = True
                self.report.record(
                    RecoveryAction(
                        label="(pool)",
                        action="degrade to serial",
                        detail=f"{self.pool_failures} consecutive spawn failures; "
                               f"finishing the sweep in-process",
                    )
                )
            return False
        self.pool_failures = 0
        self.running[worker.conn] = worker
        if self.emit is not None:
            self.emit("harness", "task_start", 0.0, {
                "label": state.task.label,
                "seed": state.seed,
                "worker": worker.identity,
                "backend": "supervised",
            })
        return True

    def _kill_worker(self, worker: _Worker, kind: str, error: str) -> None:
        identity = worker.identity
        worker.kill()
        del self.running[worker.conn]
        self._attempt_failed(
            worker.state, kind, _PROCESS_ERROR_TYPES[kind], error, identity
        )

    def _handle_messages(self, ready) -> None:
        for conn in ready:
            worker = self.running.get(conn)
            if worker is None:
                continue
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    # Pipe closed with no result: the worker crashed or
                    # was killed (OOM, SIGKILL) mid-task.
                    exitcode = worker.process.exitcode
                    identity = worker.identity
                    worker.reap()
                    del self.running[conn]
                    self._attempt_failed(
                        worker.state,
                        "killed",
                        _PROCESS_ERROR_TYPES["killed"],
                        f"worker exited without a result (exitcode {exitcode})",
                        identity,
                    )
                    break
                tag = message[0]
                if tag == "hb":
                    worker.last_heartbeat = time.monotonic()
                    self.report.heartbeats += 1
                    continue
                if tag == "ok":
                    worker.reap()
                    del self.running[conn]
                    self._finish_success(worker.state, message[1])
                    break
                if tag == "err":
                    error_type, error, sim_time, component = message[1]
                    identity = worker.identity
                    worker.reap()
                    del self.running[conn]
                    self._attempt_failed(
                        worker.state, "exception", error_type, error,
                        identity, sim_time=sim_time, component=component,
                    )
                    break

    def _check_watchdogs(self) -> None:
        now = time.monotonic()
        for worker in list(self.running.values()):
            if worker.deadline is not None and now > worker.deadline:
                self._kill_worker(
                    worker, "timeout",
                    f"task exceeded its {self.config.task_timeout:.3g}s "
                    f"wall-clock budget",
                )
            elif (
                self.config.heartbeat_timeout is not None
                and now - worker.last_heartbeat > self.config.heartbeat_timeout
            ):
                self._kill_worker(
                    worker, "stalled",
                    f"no heartbeat for {now - worker.last_heartbeat:.3g}s "
                    f"(limit {self.config.heartbeat_timeout:.3g}s)",
                )

    # -- degraded serial path --------------------------------------------
    def _run_degraded(self, state: _TaskState) -> None:
        """In-process execution with the same centralized retry policy."""
        from repro.harness.experiment import run_experiment

        while True:
            try:
                result = freeze_result(
                    run_experiment(replace(state.task.experiment, seed=state.seed))
                )
            except Exception as exc:
                before = len(self.queue)
                self._attempt_failed(
                    state, "exception", type(exc).__name__, str(exc),
                    current_worker(),
                    sim_time=getattr(exc, "sim_time", None),
                    component=getattr(exc, "component", None),
                )
                if len(self.queue) > before:  # requeued: retry inline
                    self.queue.pop()
                    continue
                return
            self._finish_success(state, result)
            return

    def _next_spawn_index(self, now: float) -> Optional[int]:
        """First queue position whose retry backoff has expired, if any."""
        for position, state in enumerate(self.queue):
            if state.not_before <= now:
                return position
        return None

    # -- main loop -------------------------------------------------------
    def run(self) -> None:
        """Execute every pending task, reporting each through ``done``."""
        ctx = multiprocessing.get_context(_start_method())
        try:
            while self.queue or self.running:
                if self.report.degraded:
                    while self.queue:
                        self._run_degraded(self.queue.pop(0))
                    continue
                now = time.monotonic()
                while self.queue and len(self.running) < self.n_jobs:
                    index = self._next_spawn_index(now)
                    if index is None:
                        break
                    if not self._spawn(ctx, self.queue.pop(index)):
                        break
                if self.report.degraded:
                    continue
                if self.running:
                    ready = connection.wait(
                        list(self.running), timeout=_TICK_SECONDS
                    )
                    self._handle_messages(ready)
                    self._check_watchdogs()
                elif self.queue:
                    # Everything is backing off; sleep until the nearest
                    # retry becomes eligible.
                    wake = min(state.not_before for state in self.queue)
                    time.sleep(max(0.0, min(wake - now, _TICK_SECONDS)))
        finally:
            for worker in list(self.running.values()):
                worker.kill()
            self.running.clear()


#: RunFailure.error_type used for each process-level failure kind.
_PROCESS_ERROR_TYPES = {
    "killed": "WorkerCrashed",
    "timeout": "TaskTimeout",
    "stalled": "WorkerStalled",
}
