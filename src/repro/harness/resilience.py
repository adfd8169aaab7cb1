"""Resilient execution of experiments: capture, retry, report.

A 5×5 grid sweep that dies on cell 23 of 25 throws away twenty-two
finished simulations and tells you nothing about where it died.  This
module gives the cell pipeline (:func:`~repro.harness.parallel.execute_tasks`,
behind every sweep and repetition) a different failure mode: with
``on_error="capture"`` each cell runs through :func:`run_with_retries`,
which

* catches the failure,
* retries with a deterministically bumped seed (transient stochastic
  failures — an unlucky divergence, a pathological event ordering — often
  clear on a different random stream; systematic bugs do not),
* and, if every attempt fails, returns a :class:`RunFailure` carrying the
  structured error context (virtual time, component, invariant) from
  :mod:`repro.errors` instead of raising.

Sweeps then return partial results plus a failure report
(:func:`format_failure_report`), so one poisoned cell costs one cell.

Every attempt — the original seed, each bumped retry, and (under the
supervised backend in :mod:`repro.harness.supervisor`) each process-level
recovery such as a timeout kill — is recorded as an :class:`Attempt` on
the failure, together with the identity of the worker that ran it, so
serial and supervised sweeps produce directly comparable reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.harness.experiment import Experiment, ExperimentResult, run_experiment

__all__ = [
    "Attempt",
    "RunFailure",
    "RecoveryAction",
    "run_with_retries",
    "format_failure_report",
    "format_recovery_report",
    "RETRY_SEED_STRIDE",
]

#: Added to the seed for each retry attempt.  A large prime, so bumped
#: seeds never collide with the caller's own seed sequence (1, 2, 3, ...).
RETRY_SEED_STRIDE = 100_003


def current_worker() -> str:
    """Identity string of the process executing right now (``pid:<n>``)."""
    return f"pid:{os.getpid()}"


@dataclass(frozen=True)
class Attempt:
    """One execution attempt of one task: where it ran and how it ended.

    ``kind`` is ``"exception"`` (the simulation raised), ``"timeout"``
    (per-task wall-clock budget expired), ``"killed"`` (the worker
    process died — SIGKILL, OOM, segfault), ``"stalled"`` (heartbeats
    stopped while the process stayed alive) or ``"spawn"`` (the worker
    could not even be started).  ``backoff_s`` is the delay the
    supervisor waited before the *next* attempt (0 for immediate retry).
    """

    seed: int
    kind: str
    error_type: Optional[str] = None
    error: Optional[str] = None
    worker: Optional[str] = None
    backoff_s: float = 0.0

    def __str__(self) -> str:
        parts = [f"seed={self.seed}", self.kind]
        if self.error_type:
            parts.append(self.error_type)
        if self.worker:
            parts.append(f"worker={self.worker}")
        if self.backoff_s:
            parts.append(f"backoff={self.backoff_s:.2g}s")
        return " ".join(parts)


@dataclass(frozen=True)
class RecoveryAction:
    """One recovery decision the supervised backend took and survived.

    Unlike :class:`Attempt` (which lives on terminal failures), recovery
    actions record the *non-fatal* interventions — a killed worker
    retried in place, a seed bump that cleared a divergence, degradation
    to serial execution — so a completed sweep still tells the story of
    what it took to finish.
    """

    label: str
    action: str
    detail: str
    worker: Optional[str] = None

    def __str__(self) -> str:
        who = f" [{self.worker}]" if self.worker else ""
        return f"{self.label}: {self.action}{who} — {self.detail}"


@dataclass(frozen=True)
class RunFailure:
    """One experiment's terminal failure, after exhausting retries.

    ``seeds_tried`` lists every seed attempted (original plus bumps);
    ``sim_time``/``component``/``detail`` come from the structured
    :class:`~repro.errors.SimulationError` context when available.
    ``attempts`` is the full retry/backoff history (one
    :class:`Attempt` per try, in order) and ``worker`` identifies the
    process that ran the final attempt — both are filled by the serial
    retry runner and the supervised backend alike, so ``on_error =
    "capture"`` reports are comparable across execution modes.
    """

    label: str
    seeds_tried: Tuple[int, ...]
    error_type: str
    error: str
    sim_time: Optional[float] = None
    component: Optional[str] = None
    attempts: Tuple[Attempt, ...] = field(default=())
    worker: Optional[str] = None

    def __str__(self) -> str:
        where = f" at t={self.sim_time:.3f}s" if self.sim_time is not None else ""
        who = f" in {self.component}" if self.component else ""
        ran_on = f" [{self.worker}]" if self.worker else ""
        return (
            f"{self.label}: {self.error_type}{where}{who}{ran_on} "
            f"(seeds tried: {', '.join(map(str, self.seeds_tried))}) — {self.error}"
        )


def run_with_retries(
    experiment: Experiment,
    label: str,
    max_retries: int = 1,
    tracer: Optional[object] = None,
) -> Tuple[Optional[ExperimentResult], Optional[RunFailure]]:
    """Run ``experiment``, retrying with bumped seeds on failure.

    Returns ``(result, None)`` on success and ``(None, failure)`` once
    the original seed plus ``max_retries`` bumped seeds have all failed.
    ``tracer`` observes the first attempt only: retries on bumped seeds
    are diagnostics, not trace subjects.
    ``KeyboardInterrupt``/``SystemExit`` are never swallowed.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries cannot be negative (got {max_retries})")
    seeds = [experiment.seed + attempt * RETRY_SEED_STRIDE
             for attempt in range(max_retries + 1)]
    worker = current_worker()
    attempts: List[Attempt] = []
    last_error: Optional[BaseException] = None
    for seed in seeds:
        try:
            return run_experiment(replace(experiment, seed=seed),
                                  tracer=tracer), None
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            last_error = exc
            tracer = None
            attempts.append(
                Attempt(
                    seed=seed,
                    kind="exception",
                    error_type=type(exc).__name__,
                    error=str(exc),
                    worker=worker,
                )
            )
    sim_time = getattr(last_error, "sim_time", None)
    component = getattr(last_error, "component", None)
    if isinstance(last_error, SimulationError) and last_error.context.get("callback"):
        component = component or last_error.context["callback"]
    return None, RunFailure(
        label=label,
        seeds_tried=tuple(seeds),
        error_type=type(last_error).__name__,
        error=str(last_error),
        sim_time=sim_time,
        component=component,
        attempts=tuple(attempts),
        worker=worker,
    )


def format_failure_report(failures) -> str:
    """Render a failure list as text, one line per failed run.

    Failures carrying an :class:`Attempt` history get one indented line
    per attempt, so the report shows the seed bumps, timeouts and worker
    kills that preceded the terminal error.
    """
    failures = list(failures)
    if not failures:
        return "all runs completed"
    lines = [f"{len(failures)} run(s) failed:"]
    for failure in failures:
        lines.append(f"  - {failure}")
        for number, attempt in enumerate(getattr(failure, "attempts", ()), start=1):
            lines.append(f"      attempt {number}: {attempt}")
    return "\n".join(lines)


def format_recovery_report(actions) -> str:
    """Render the supervised backend's recovery log as text."""
    actions = list(actions)
    if not actions:
        return "no recovery actions taken"
    lines = [f"{len(actions)} recovery action(s):"]
    lines.extend(f"  - {action}" for action in actions)
    return "\n".join(lines)
