"""Supervised backend: watchdogged workers that survive process failure.

:func:`~repro.harness.parallel.execute_tasks` runs every cell through
one pipeline — journal replay, cache probe, backend, cache store,
journal append.  When ``jobs`` resolves to more than one worker, or a
``task_timeout`` or ``heartbeat_timeout`` is given, the backend is this
one, and every sweep, repetition and figure gets:

* **process isolation** — cells run in forked worker processes, one
  pipe each, so a crash is observable (pipe EOF + exit code) and costs
  one attempt instead of a lost cell or a stalled run.  Workers are
  forked when the run starts and take one cell after another, because
  forking per cell from a parent that holds every finished result cost
  the claim run about a tenth more worker CPU (docs/PERFORMANCE.md); a
  worker that dies or is killed is replaced by a fresh fork;
* **per-task wall-clock timeouts** and **worker heartbeats** — a hung or
  frozen worker is killed and the task retried, rather than stalling the
  sweep;
* **bounded retry with exponential backoff**: simulation exceptions
  retry on deterministically bumped seeds (the exact
  :data:`~repro.harness.resilience.RETRY_SEED_STRIDE` sequence of the
  inline backend, bounded by the same ``max_retries``), while
  process-level failures — SIGKILL, timeout, stalled heartbeats — retry
  the *same* seed, because the cause was external and determinism
  demands the rerun be identical;
* **graceful degradation to serial execution** after repeated spawn
  failures — if workers cannot even be spawned, the sweep finishes
  in-process rather than dying;
* every recovery action is recorded on the run's
  :class:`~repro.harness.parallel.RunReport`, and terminal failures
  carry the full :class:`~repro.harness.resilience.Attempt` history and
  worker identity.

Each attempt, in a worker or degraded in-process, runs the inline
backend's cell body (:func:`~repro.harness.parallel._run_cell`) and hands
its frozen result to the parent, which stores and journals it as the
inline backend does; a fixed seed gives bit-identical outcomes serial,
supervised, interrupted-and-resumed, or degraded.

The policy constants below are module attributes, read at each use.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import replace
from multiprocessing import connection
from typing import Dict, List, Optional

from repro.harness.parallel import SweepTask, _run_cell
from repro.harness.resilience import (
    RETRY_SEED_STRIDE,
    Attempt,
    RecoveryAction,
    RunFailure,
    current_worker,
)

#: Seconds between a worker's heartbeats (always sent; they only kill a
#: worker when ``heartbeat_timeout`` is set).
HEARTBEAT_INTERVAL = 0.5
#: Same-seed retries of a cell after process-level failures.
MAX_TASK_FAILURES = 2
#: Process-level retry n waits ``BACKOFF_BASE * BACKOFF_FACTOR**n``
#: seconds, capped at ``BACKOFF_MAX``; a failed spawn waits ``BACKOFF_BASE``.
BACKOFF_BASE = 0.25
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0
#: Consecutive spawn failures after which the sweep finishes in-process.
MAX_SPAWN_FAILURES = 3

#: Scheduler poll period: how often timeouts/heartbeats are re-checked.
_TICK_SECONDS = 0.05


def _start_method() -> str:
    """Prefer fork (fast, inherits sys.path — test-defined factories
    pickle by reference); fall back to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _supervised_worker(conn, parent_end, heartbeat_interval: float) -> None:
    """Worker body: a heartbeat thread, and cells until the pipe closes.

    Sends ``("hb",)`` every ``heartbeat_interval`` seconds from a daemon
    thread.  Each task received is acknowledged with a heartbeat and
    answered with exactly one ``("done", frozen_result, failure)`` — one
    side None — from :func:`~repro.harness.parallel._run_cell`.  A
    SIGKILL leaves the pipe closed with no answer, which is precisely how
    the parent recognises a crash.

    The forked worker first closes its copy of the parent's end
    (``parent_end``): if the parent dies, the worker's receive then ends
    and its sends fail, instead of blocking forever.
    """
    parent_end.close()
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

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):  # the parent closed or went away
                return
            send(("hb",))
            result, failure = _run_cell(task, 0, True, True)
            send(("done", result, failure))
    finally:
        stop.set()
        conn.close()


def _start_worker(ctx) -> "_Worker":
    """Spawn one idle worker process (monkeypatchable seam)."""
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_supervised_worker,
        args=(child_conn, parent_conn, HEARTBEAT_INTERVAL),
        daemon=True,
    )
    process.start()
    child_conn.close()
    return _Worker(process, parent_conn)


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

    def attempt_task(self) -> SweepTask:
        """The task as the next attempt runs it: on a bumped seed after a
        simulation exception."""
        if self.seed == self.task.experiment.seed:
            return self.task
        return replace(self.task, experiment=replace(
            self.task.experiment, seed=self.seed))


class _Worker:
    """One live worker process and the supervision state around it;
    ``state`` is the cell it runs (None while idle)."""

    __slots__ = ("state", "process", "conn", "last_heartbeat", "deadline")

    def __init__(self, process, conn):
        self.state: Optional[_TaskState] = None
        self.process = process
        self.conn = conn
        self.last_heartbeat = time.monotonic()
        self.deadline: Optional[float] = None

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
        self.reap()

    def reap(self) -> None:
        """Join the worker process and close its pipe."""
        self.process.join(timeout=5.0)
        self.conn.close()


class _Supervisor:
    """The backend: workers, deadlines, retries, degradation.

    Runs ``tasks[i]`` for every ``i`` in ``pending`` on at most
    ``n_jobs`` workers and hands each finished cell to ``done(index,
    result, failure)`` — the pipeline's store-and-journal step — the
    moment it completes.  ``retries`` is the seed-bump budget (0 unless
    ``on_error="capture"``).
    """

    def __init__(self, tasks, pending, n_jobs, retries, task_timeout,
                 heartbeat_timeout, report, emit, done):
        self.n_jobs = n_jobs
        self.retries = retries
        self.task_timeout = task_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.report = report
        #: Fire-and-forget span sink (None = tracing off).  The
        #: supervisor only ever *emits* into it; no tracer output feeds
        #: scheduling decisions.
        self.emit = emit
        self.done = done
        self.queue: List[_TaskState] = [_TaskState(i, tasks[i]) for i in pending]
        self.running: Dict[object, _Worker] = {}
        self.spawn_failures = 0

    # -- completion paths ------------------------------------------------
    def _attempt_done(self, state: _TaskState, result, failure,
                      worker: Optional[str]) -> None:
        """One attempt ran to its end: finish the cell or retry it."""
        if failure is not None:
            self._attempt_failed(
                state, "exception", failure.error_type, failure.error, worker,
                sim_time=failure.sim_time, component=failure.component,
            )
            return
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
            retry = state.proc_failures < MAX_TASK_FAILURES
            backoff = min(
                BACKOFF_BASE * BACKOFF_FACTOR ** state.proc_failures,
                BACKOFF_MAX,
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
                f"{MAX_TASK_FAILURES} after {kind} "
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
    def _idle_worker(self, ctx, state: _TaskState) -> Optional[_Worker]:
        """An idle worker for ``state``'s next attempt: a running one, or
        a new fork while fewer than ``n_jobs`` run.  None when every
        worker is busy, or when the fork failed (``state`` backs off)."""
        for worker in self.running.values():
            if worker.state is None:
                return worker
        if len(self.running) >= self.n_jobs:
            return None
        try:
            worker = _start_worker(ctx)
        except (OSError, RuntimeError) as exc:
            self.spawn_failures += 1
            self.report.record(
                RecoveryAction(
                    label=state.task.label,
                    action="spawn failed",
                    detail=f"{type(exc).__name__}: {exc} "
                           f"({self.spawn_failures}/{MAX_SPAWN_FAILURES} "
                           f"consecutive)",
                )
            )
            state.not_before = time.monotonic() + BACKOFF_BASE
            if self.spawn_failures >= MAX_SPAWN_FAILURES:
                self.report.degraded = True
                self.report.record(
                    RecoveryAction(
                        label="(workers)",
                        action="degrade to serial",
                        detail=f"{self.spawn_failures} consecutive spawn "
                               f"failures; finishing the sweep in-process",
                    )
                )
            return None
        self.spawn_failures = 0
        self.running[worker.conn] = worker
        return worker

    def _assign(self, worker: _Worker, state: _TaskState) -> bool:
        """Send ``state``'s next attempt to an idle worker; False when the
        worker is already gone (the attempt never started)."""
        try:
            worker.conn.send(state.attempt_task())
        except OSError:
            self._discard(worker)
            return False
        now = time.monotonic()
        worker.state, worker.last_heartbeat = state, now
        if self.task_timeout is not None:
            worker.deadline = now + self.task_timeout
        if self.emit is not None:
            self.emit("harness", "task_start", 0.0, {
                "label": state.task.label,
                "seed": state.seed,
                "worker": worker.identity,
                "backend": "supervised",
            })
        return True

    def _discard(self, worker: _Worker) -> None:
        """Reap a worker that exited and forget it."""
        worker.reap()
        del self.running[worker.conn]

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
                    # Pipe closed with no answer: the worker crashed or
                    # was killed (OOM, SIGKILL).
                    state, identity = worker.state, worker.identity
                    self._discard(worker)
                    if state is not None:
                        self._attempt_failed(
                            state,
                            "killed",
                            _PROCESS_ERROR_TYPES["killed"],
                            f"worker exited without a result "
                            f"(exitcode {worker.process.exitcode})",
                            identity,
                        )
                    break
                if message[0] == "hb":
                    worker.last_heartbeat = time.monotonic()
                    self.report.heartbeats += 1
                    continue
                state, worker.state, worker.deadline = worker.state, None, None
                self._attempt_done(state, message[1], message[2],
                                   worker.identity)

    def _check_watchdogs(self) -> None:
        now = time.monotonic()
        for worker in list(self.running.values()):
            if worker.state is None:
                continue
            if worker.deadline is not None and now > worker.deadline:
                self._kill_worker(
                    worker, "timeout",
                    f"task exceeded its {self.task_timeout:.3g}s "
                    f"wall-clock budget",
                )
            elif (
                self.heartbeat_timeout is not None
                and now - worker.last_heartbeat > self.heartbeat_timeout
            ):
                self._kill_worker(
                    worker, "stalled",
                    f"no heartbeat for {now - worker.last_heartbeat:.3g}s "
                    f"(limit {self.heartbeat_timeout:.3g}s)",
                )

    def _run_degraded(self, state: _TaskState) -> None:
        """One attempt in this process, through the same cell body and
        retry policy as a worker's (a retry is requeued as usual)."""
        result, failure = _run_cell(state.attempt_task(), 0, True, True)
        self._attempt_done(state, result, failure, current_worker())

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
            while self.queue or any(
                    worker.state is not None for worker in self.running.values()):
                if self.report.degraded and self.queue:
                    self._run_degraded(self.queue.pop(0))
                    continue
                now = time.monotonic()
                while not self.report.degraded and self.queue:
                    index = self._next_spawn_index(now)
                    if index is None:
                        break
                    worker = self._idle_worker(ctx, self.queue[index])
                    if worker is None:
                        break
                    state = self.queue.pop(index)
                    if not self._assign(worker, state):
                        self.queue.insert(index, state)
                if self.running:
                    ready = connection.wait(
                        list(self.running), timeout=_TICK_SECONDS
                    )
                    self._handle_messages(ready)
                    self._check_watchdogs()
                elif self.queue and not self.report.degraded:
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
