"""Grid sweeps and result tables for the coexistence figures.

Figures 15–18 evaluate every combination of link rate {4, 12, 40, 120,
200} Mb/s and RTT {5, 10, 20, 50, 100} ms; Figures 19–20 sweep flow-count
mixes at a fixed operating point.  This module declares both sweeps'
cells (:func:`_grid_tasks`, :func:`_mix_tasks`, which the figure
registry runs), runs a grid on its own for the CLI's ``grid``
command, and renders aligned text tables (the repository's
stand-in for the paper's bar-chart panels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.harness.cache import ResultCache
from repro.harness.experiment import AqmFactory, ExperimentResult
from repro.harness.parallel import RunReport, SweepTask, execute_tasks
from repro.harness.resilience import RunFailure, format_failure_report
from repro.harness.scenarios import MBPS, coexistence_mix, coexistence_pair

__all__ = [
    "GridCell",
    "GridOutcome",
    "PAPER_LINK_MBPS",
    "PAPER_RTTS_MS",
    "run_coexistence_grid",
    "format_table",
]

#: The paper's evaluation grid (Figures 15–18).
PAPER_LINK_MBPS = (4, 12, 40, 120, 200)
PAPER_RTTS_MS = (5, 10, 20, 50, 100)


@dataclass
class GridCell:
    """One grid point's configuration and completed result."""

    link_mbps: float
    rtt_ms: float
    result: ExperimentResult

    def balance(self, label_a: str, label_b: str) -> float:
        """Rate-balance ratio between two flow classes in this cell."""
        return self.result.balance(label_a, label_b)


class GridOutcome(List[GridCell]):
    """Completed grid cells plus the failure report of any that died.

    A plain list of :class:`GridCell` (so existing code iterating a sweep
    keeps working), with :attr:`failures` carrying one
    :class:`~repro.harness.resilience.RunFailure` per cell that failed
    every retry.  Failed cells are simply absent from the list.
    :attr:`recovery` holds the cell pipeline's
    :class:`~repro.harness.parallel.RunReport` (executed, replayed and
    cached cells, journal appends, the supervisor's recovery log).
    """

    def __init__(self, cells=(), failures=()):
        super().__init__(cells)
        self.failures: List[RunFailure] = list(failures)
        self.recovery = RunReport()

    @property
    def complete(self) -> bool:
        """True when every cell completed (no failures captured)."""
        return not self.failures

    def failure_report(self) -> str:
        """Human-readable summary of the captured cell failures."""
        return format_failure_report(self.failures)


def _grid_tasks(
    aqm_factory: AqmFactory, cc_a: str, cc_b: str,
    links_mbps: Sequence[float], rtts_ms: Sequence[float],
    duration: float, warmup: float, seed: int,
    duration_for: Optional[Callable[[float, float], float]] = None,
) -> List[Tuple[float, float, SweepTask]]:
    """The Figure 15–18 cells in grid order: ``(link, rtt, task)``.

    ``duration_for(link_mbps, rtt_ms)``, when given, sets each cell's run
    length in place of ``duration`` (the ``fig15_18`` convergence budget).
    """
    cells = []
    for link in links_mbps:
        for rtt in rtts_ms:
            d = duration if duration_for is None else duration_for(link, rtt)
            exp = coexistence_pair(
                aqm_factory,
                cc_a=cc_a,
                cc_b=cc_b,
                capacity_bps=link * MBPS,
                rtt=rtt / 1000.0,
                duration=d,
                warmup=min(warmup, d / 2),
                seed=seed,
            )
            cells.append(
                (link, rtt, SweepTask(f"cell link={link}Mb/s rtt={rtt}ms", exp))
            )
    return cells


def _mix_tasks(
    aqm_factory: AqmFactory, cc_a: str, cc_b: str,
    mixes: Sequence[Tuple[int, int]], capacity_mbps: float, rtt_ms: float,
    duration: float, warmup: float, seed: int,
) -> List[Tuple[int, int, SweepTask]]:
    """The Figure 19–20 cells in mix order: ``(n_a, n_b, task)``."""
    cells = []
    for n_a, n_b in mixes:
        exp = coexistence_mix(
            aqm_factory,
            n_a,
            n_b,
            cc_a=cc_a,
            cc_b=cc_b,
            capacity_bps=capacity_mbps * MBPS,
            rtt=rtt_ms / 1000.0,
            duration=duration,
            warmup=warmup,
            seed=seed,
        )
        cells.append((n_a, n_b, SweepTask(f"mix {cc_a}x{n_a} vs {cc_b}x{n_b}", exp)))
    return cells


def run_coexistence_grid(
    aqm_factory: AqmFactory,
    cc_a: str = "dctcp",
    cc_b: str = "cubic",
    links_mbps: Sequence[float] = PAPER_LINK_MBPS,
    rtts_ms: Sequence[float] = PAPER_RTTS_MS,
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 1,
    on_error: str = "raise",
    max_retries: int = 1,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    task_timeout: Optional[float] = None,
    heartbeat_timeout: Optional[float] = None,
    journal=None,
    resume: bool = False,
    tracer=None,
) -> GridOutcome:
    """Run the Figure 15–18 grid; one long-running flow per class per cell.

    ``on_error`` selects the failure policy: ``"raise"`` (default)
    propagates the first cell failure; ``"capture"`` retries the cell
    with seed-bumped reruns (``max_retries`` attempts beyond the first)
    and, if it still fails, records a structured
    :class:`~repro.harness.resilience.RunFailure` on the returned
    outcome's ``failures`` and moves on to the next cell, so a 25-cell
    sweep never dies on cell 23.

    The cells run through
    :func:`~repro.harness.parallel.execute_tasks`, which owns the rest:
    ``jobs`` (None serial, 0 one worker per CPU, N supervised workers),
    ``cache`` (an on-disk result cache), ``task_timeout`` and
    ``heartbeat_timeout`` (kill and retry a cell's worker past that many
    wall-clock or silent seconds), ``journal`` (a
    :class:`~repro.harness.journal.ResultJournal` or path, fsync'd per
    completed cell) and ``resume`` (replay journaled cells instead of
    re-simulating).  Cell seeds and ordering never depend on these, so
    a fixed seed gives bit-identical outcomes serial, parallel, cached,
    supervised or interrupted-and-resumed.  Results are frozen
    (:class:`~repro.harness.frozen.FrozenResult`: same metric API, same
    numbers, detached from the testbed) whenever they were stored or
    crossed a process; a serial run without cache or journal returns
    live results.  The outcome's ``recovery`` attribute carries the
    run's :class:`~repro.harness.parallel.RunReport`.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) observes the sweep:
    harness lifecycle spans, plus per-cell AQM/engine events on the
    in-process route.  Tracing never changes results — digests are
    bit-exact with it on or off.
    """
    cells = _grid_tasks(aqm_factory, cc_a, cc_b, links_mbps, rtts_ms,
                        duration, warmup, seed)
    outcome = GridOutcome()
    pairs = execute_tasks(
        [task for _link, _rtt, task in cells], jobs=jobs, on_error=on_error,
        max_retries=max_retries, cache=cache, tracer=tracer,
        journal=journal, resume=resume, task_timeout=task_timeout,
        heartbeat_timeout=heartbeat_timeout, report=outcome.recovery,
    )
    for (link, rtt, _task), (result, failure) in zip(cells, pairs):
        if result is not None:
            outcome.append(GridCell(link, rtt, result))
        else:
            outcome.failures.append(failure)
    return outcome


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table (the benches' figure stand-in)."""
    cols = [
        [str(h)] + [_fmt(row[i]) for row in rows] for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append(
            "  ".join(_fmt(cell).rjust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
