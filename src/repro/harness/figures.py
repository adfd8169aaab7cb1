"""Programmatic figure-data generators.

:func:`generate_figure` regenerates the *data* behind one of the
paper's figures and returns a :class:`FigureData` (headers + rows + a
note about the paper's expected shape), for the CLI's ``figure``
subcommand and for notebook/scripting use.  The pytest benchmarks in ``benchmarks/`` are the
*assertion* layer for the same experiments; these generators favour
moderate default durations so a figure is obtainable in seconds-to-a-
minute from the command line, with a ``scale`` knob to trade time for
smoothness.

Cells and crash safety
----------------------
A simulation-backed figure declares its cells (one
:class:`~repro.harness.parallel.SweepTask` each) and a reducer from
their results to rows.  :func:`generate_figure` runs every cell of a
figure in one :func:`~repro.harness.parallel.execute_tasks` call, so a
figure gets the whole cell pipeline: ``jobs`` fans its cells out, the
result cache serves repeats, a crash-safe
:class:`~repro.harness.journal.ResultJournal` (``journal=``) fsyncs
each completed cell, ``resume=True`` replays journaled cells bit-exactly,
and ``supervisor=`` runs each cell in a watchdogged worker process.  A
failing cell raises :class:`~repro.errors.FigureGenerationError` naming
the figure, the cell and the virtual time of death.

Example
-------
>>> from repro.harness.figures import generate_figure
>>> data = generate_figure("fig05")
>>> data.headers
['p', 'tune(p)', 'sqrt(2p)']
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.bode import margins_reno_pi, margins_reno_pi2, margins_reno_pie, margins_scal_pi
from repro.analysis.fluid import PAPER_PI2_GAINS, PAPER_PIE_GAINS, PAPER_SCAL_GAINS
from repro.aqm.tune_table import tune_table_rows
from repro.errors import ConfigError, FigureGenerationError
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import coupled_factory, pi2_factory, pi_factory, pie_factory
from repro.harness.parallel import RunReport, SweepTask, execute_tasks
from repro.harness.scenarios import (
    MBPS,
    heavy_tcp,
    light_tcp,
    tcp_plus_udp,
    varying_capacity,
    varying_intensity,
)
from repro.harness.sweep import _grid_tasks, _mix_tasks, format_table

__all__ = [
    "FigureData",
    "FIGURES",
    "MIN_STAGE_SECONDS",
    "generate_figure",
]

#: Shortest per-stage window the staged-intensity figures accept.  Below
#: this the settle offset and the averaging window collapse into nothing
#: and every per-stage statistic would be NaN.
MIN_STAGE_SECONDS = 0.5


@dataclass
class FigureData:
    """Rows regenerating one figure, plus the paper's expected shape."""

    figure: str
    headers: List[str]
    rows: List[Tuple]
    note: str = ""
    report: Optional[RunReport] = None

    def table(self) -> str:
        """Render headers + rows as an aligned text table."""
        title = f"{self.figure}" + (f"\n{self.note}" if self.note else "")
        return format_table(self.headers, self.rows, title=title)

    def to_csv(self, path) -> None:
        """Write the figure's rows to ``path`` as CSV (always UTF-8)."""
        import csv
        from pathlib import Path

        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.headers)
            writer.writerows(self.rows)


def _gm(m):
    return float("nan") if m.gain_margin_db is None else m.gain_margin_db


#: What a figure generator returns: its cells, and a reducer from their
#: results (in cell order) to the figure's rows.
Figure = Tuple[List[SweepTask], Callable[[list], FigureData]]


def fig04(scale: float = 1.0) -> Figure:
    """Bode gain margins for PI on Reno: auto vs fixed tunes."""
    rows = []
    for p in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0):
        rows.append(
            (
                p,
                _gm(margins_reno_pie(p, 0.1, PAPER_PIE_GAINS)),
                _gm(margins_reno_pi(p, 0.1, PAPER_PIE_GAINS, tune_factor=1.0)),
                _gm(margins_reno_pi(p, 0.1, PAPER_PIE_GAINS, tune_factor=1 / 8)),
            )
        )
    return [], lambda _results: FigureData(
        "Figure 4", ["p", "GM auto [dB]", "GM tune=1 [dB]", "GM tune=1/8 [dB]"],
        rows, "paper shape: fixed-gain diagonal goes negative at low p",
    )


def fig05(scale: float = 1.0) -> Figure:
    """PIE's stepped tune factor vs the analytic √(2p)."""
    rows = [(p, t, s) for p, t, s in tune_table_rows(points_per_decade=2)]
    return [], lambda _results: FigureData(
        "Figure 5", ["p", "tune(p)", "sqrt(2p)"], rows,
        "paper shape: the steps straddle sqrt(2p) over six decades",
    )


def fig07(scale: float = 1.0) -> Figure:
    """Bode margins for reno-PIE / reno-PI2 / scal-PI."""
    rows = []
    for pp in (0.001, 0.01, 0.1, 0.3, 0.6, 1.0):
        rows.append(
            (
                pp,
                _gm(margins_reno_pie(pp, 0.1, PAPER_PIE_GAINS)),
                _gm(margins_reno_pi2(pp, 0.1, PAPER_PI2_GAINS)),
                _gm(margins_scal_pi(pp, 0.1, PAPER_SCAL_GAINS)),
            )
        )
    return [], lambda _results: FigureData(
        "Figure 7", ["p or p'", "GM pie [dB]", "GM pi2 [dB]", "GM scal [dB]"],
        rows, "paper shape: pi2/scal flat and positive; >10 dB only at p'>0.6",
    )


def _stage_warmup(stage: float) -> float:
    """Settle time skipped at the head of each stage before averaging.

    The paper-scale stages (≥ 8 s) skip a fixed 1 s of transient; short
    CLI runs shrink the offset proportionally so the averaging window
    never empties (a fixed 1 s offset past the stage end fed
    ``np.mean`` an empty slice → NaN rows below ``scale = 0.125``).
    """
    return min(1.0, stage / 8.0)


def _require_min_stage(figure: str, stage: float, scale: float) -> None:
    """Reject stage lengths too short for per-stage statistics."""
    if stage < MIN_STAGE_SECONDS:
        min_scale = scale * MIN_STAGE_SECONDS / stage
        raise ConfigError(
            f"{figure}: stage length {stage:.3g}s (scale={scale:.3g}) is "
            f"below the {MIN_STAGE_SECONDS}s minimum for per-stage delay "
            f"statistics; use scale >= {min_scale:.3g}"
        )


def _staged_intensity(figure: str, title: str, note: str, scale: float,
                      base_stage: float, capacity_bps: float, rtt: float,
                      aqms) -> Figure:
    """Figures 6 and 13: one varying-intensity cell per AQM, reduced to
    per-stage mean/peak queue delay (10, 30, 50, 30, 10 flows)."""
    stage = base_stage * scale
    _require_min_stage(figure, stage, scale)
    tasks = []
    for name, factory in aqms:
        exp = varying_intensity(factory, capacity_bps=capacity_bps, rtt=rtt,
                                stage=stage)
        exp.sample_period = 0.1
        tasks.append(SweepTask(name, exp))

    def reduce(results) -> FigureData:
        warmup = _stage_warmup(stage)
        rows = []
        for task, r in zip(tasks, results):
            for s, flows in enumerate((10, 30, 50, 30, 10)):
                qd = r.queue_delay.window(s * stage + warmup, (s + 1) * stage)
                rows.append(
                    (task.label, f"{s + 1} ({flows} flows)",
                     float(np.mean(qd)) * 1e3, float(np.max(qd)) * 1e3)
                )
        return FigureData(
            title, ["aqm", "stage", "q mean [ms]", "q peak [ms]"], rows, note
        )

    return tasks, reduce


def fig06(scale: float = 1.0) -> Figure:
    """Un-tuned PI vs PI2 under varying intensity at 100 Mb/s, 10 ms."""
    return _staged_intensity(
        "fig06", "Figure 6",
        "paper shape: un-tuned PI oscillates at low load; PI2 holds 20 ms",
        scale, 8.0, 100 * MBPS, 0.010,
        (("pi", pi_factory()), ("pi2", pi2_factory())),
    )


def fig11(scale: float = 1.0) -> Figure:
    """Queue delay and throughput under three traffic loads."""
    duration = 30.0 * scale
    scenarios = {
        "5 TCP": light_tcp, "50 TCP": heavy_tcp, "5 TCP + 2 UDP": tcp_plus_udp,
    }
    cells = [
        (label, name, scenario(factory, duration=duration))
        for label, scenario in scenarios.items()
        for name, factory in (("pie", pie_factory()), ("pi2", pi2_factory()))
    ]

    def reduce(results) -> FigureData:
        rows = []
        for (label, name, _exp), r in zip(cells, results):
            soj = r.sojourn_samples()
            rows.append(
                (label, name, float(np.mean(soj)) * 1e3,
                 float(np.percentile(soj, 99)) * 1e3,
                 r.mean_utilization() * 100)
            )
        return FigureData(
            "Figure 11",
            ["scenario", "aqm", "q mean [ms]", "q p99 [ms]", "util [%]"],
            rows, "paper shape: both hold ~20 ms at full utilization",
        )

    return [SweepTask(f"{label}/{name}", exp) for label, name, exp in cells], reduce


def fig12(scale: float = 1.0) -> Figure:
    """Queue delay through capacity steps 100:20:100 Mb/s."""
    stage = 15.0 * scale
    # The transient windows around each capacity step settle for 5 s at
    # paper scale (stage = 15 s); shrink them with the stage so short
    # runs keep non-empty windows (stage/3 == 5 s exactly at scale 1).
    settle = min(5.0, stage / 3.0)
    tasks = []
    for name, factory in (("pie", pie_factory()), ("pi2", pi2_factory())):
        exp = varying_capacity(factory, stage=stage)
        exp.sample_period = 0.1
        tasks.append(SweepTask(name, exp))

    def reduce(results) -> FigureData:
        rows = [
            (task.label,
             r.queue_delay.max(stage, stage + settle) * 1e3,
             r.queue_delay.mean(stage + settle, 2 * stage) * 1e3,
             r.queue_delay.max(2 * stage, 2 * stage + settle) * 1e3)
            for task, r in zip(tasks, results)
        ]
        return FigureData(
            "Figure 12",
            ["aqm", "peak@drop [ms]", "mean@20M [ms]", "peak@rise [ms]"],
            rows, "paper: 510 ms (PIE) vs 250 ms (PI2) at the drop",
        )

    return tasks, reduce


def fig13(scale: float = 1.0) -> Figure:
    """Varying intensity at 10 Mb/s, 100 ms RTT: PIE vs PI2."""
    return _staged_intensity(
        "fig13", "Figure 13",
        "paper shape: PI2 reduces overshoot at load changes",
        scale, 12.0, 10 * MBPS, 0.100,
        (("pie", pie_factory()), ("pi2", pi2_factory())),
    )


def fig19(scale: float = 1.0) -> Figure:
    """Rate balance across flow-count mixes at 40 Mb/s, 10 ms."""
    duration = 25.0 * scale
    mixes = ((1, 1), (1, 9), (5, 5), (9, 1))
    cells = [
        (name, n_a, n_b, task)
        for name, factory in (("pie", pie_factory()), ("pi2", coupled_factory()))
        for n_a, n_b, task in _mix_tasks(
            factory, "dctcp", "cubic", mixes, 40.0, 10.0,
            duration, min(10.0, duration / 2), 1,
        )
    ]

    def reduce(results) -> FigureData:
        rows = [
            (name, f"A{n_a}-B{n_b}", r.balance("dctcp", "cubic"))
            for (name, n_a, n_b, _task), r in zip(cells, results)
        ]
        return FigureData(
            "Figure 19", ["aqm", "mix (A=dctcp B=cubic)", "DCTCP/Cubic ratio"],
            rows, "paper shape: PIE ~10 for every mix, PI2 ≈ 1",
        )

    return [replace(task, label=f"{name} {task.label}")
            for name, _a, _b, task in cells], reduce


def fig14(scale: float = 1.0) -> Figure:
    """Queue-delay distribution summary at 5 ms and 20 ms targets."""
    duration = 25.0 * scale
    cells = [
        (target, name, Experiment(
            capacity_bps=10 * MBPS,
            duration=duration,
            warmup=min(10.0, duration / 3),
            aqm_factory=make(target_delay=target),
            flows=[FlowGroup(cc="reno", count=20, rtt=0.100)],
        ))
        for target in (0.005, 0.020)
        for name, make in (("pie", pie_factory), ("pi2", pi2_factory))
    ]

    def reduce(results) -> FigureData:
        rows = []
        for (target, name, _exp), r in zip(cells, results):
            soj = r.sojourn_samples()
            rows.append(
                (f"{target * 1e3:.0f} ms", name,
                 float(np.percentile(soj, 50)) * 1e3,
                 float(np.percentile(soj, 90)) * 1e3,
                 float(np.percentile(soj, 99)) * 1e3)
            )
        return FigureData(
            "Figure 14", ["target", "aqm", "p50 [ms]", "p90 [ms]", "p99 [ms]"],
            rows,
            "paper shape: PI2's CDF ≈ PIE's at both targets (20-TCP panel)",
        )

    return [SweepTask(f"{name}@{target * 1e3:.0f}ms", exp)
            for target, name, exp in cells], reduce


def fig15(scale: float = 1.0) -> Figure:
    """Rate balance on a reduced 2×2 coexistence grid.

    The full 5×5 grid with per-cell convergence budgeting lives in the
    benchmark suite; this CLI-friendly version covers the corner points.
    """
    duration = 20.0 * scale
    cells = [
        (name, link, rtt, task)
        for name, factory in (("pie", pie_factory()), ("pi2", coupled_factory()))
        for link, rtt, task in _grid_tasks(
            factory, "dctcp", "cubic", (4, 40), (10, 50),
            duration, min(8.0, duration / 2), 1,
        )
    ]

    def reduce(results) -> FigureData:
        rows = [
            (name, link, rtt, r.balance("cubic", "dctcp"))
            for (name, link, rtt, _task), r in zip(cells, results)
        ]
        return FigureData(
            "Figure 15 (reduced grid)",
            ["aqm", "link [Mb/s]", "RTT [ms]", "Cubic/DCTCP ratio"],
            rows, "paper shape: ≈0.1 under PIE (starvation), ≈1 under PI2",
        )

    return [replace(task, label=f"{name} {task.label}")
            for name, _link, _rtt, task in cells], reduce


#: Registry of the CLI-accessible generators.
FIGURES: Dict[str, Callable[[float], Figure]] = {
    "fig04": fig04,
    "fig05": fig05,
    "fig06": fig06,
    "fig07": fig07,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig19": fig19,
}


def _resolve_journal(journal, name: str, compact_every: Optional[int]):
    """Resolve the ``journal`` argument into (ResultJournal|None, owned).

    A path names a *directory* holding one journal per figure
    (``<dir>/<name>.journal``) so a fleet can share one ``--journal``
    flag across figures; a ready-made
    :class:`~repro.harness.journal.ResultJournal` is used as-is (and not
    closed — the caller owns it).
    """
    from repro.harness.journal import ResultJournal

    if journal is None:
        return None, False
    if isinstance(journal, ResultJournal):
        return journal, False
    from pathlib import Path

    root = Path(journal)
    root.mkdir(parents=True, exist_ok=True)
    return (
        ResultJournal(root / f"{name}.journal", compact_every=compact_every),
        True,
    )


def _cell_error(figure: str, label: str, failure) -> FigureGenerationError:
    """The one error type for a figure cell that produced no result."""
    where = []
    if failure.sim_time is not None:
        where.append(f"t={failure.sim_time:.6f}s")
    if failure.component:
        where.append(f"component={failure.component}")
    suffix = f" [{' '.join(where)}]" if where else ""
    return FigureGenerationError(
        f"figure {figure} cell {label!r} failed: "
        f"{failure.error_type}: {failure.error}{suffix}",
        figure=figure,
        label=label,
        error_type=failure.error_type,
        sim_time=failure.sim_time,
        component=failure.component,
    )


def generate_figure(
    name: str, scale: float = 1.0, jobs=None, cache=None, tracer=None,
    journal=None, resume: bool = False, supervisor=None,
    compact_every: Optional[int] = None,
) -> FigureData:
    """Generate one figure's data by registry name.

    The figure's cells run in one
    :func:`~repro.harness.parallel.execute_tasks` call: ``jobs`` fans
    them out over a process pool (None serial, 0 one worker per CPU);
    ``cache`` (a :class:`~repro.harness.cache.ResultCache`) reuses
    already-simulated cells across invocations; ``supervisor`` (a
    :class:`~repro.harness.supervisor.SupervisorConfig`) runs each cell
    in a watchdogged worker process.  ``journal`` (a directory path or a
    :class:`~repro.harness.journal.ResultJournal`) makes every completed
    cell durable as it finishes (one journal per figure name under a
    directory; ``compact_every=N`` rewrites it, latest record per key,
    after every N appends) and ``resume=True`` replays journaled cells,
    so a figure run killed mid-sweep and resumed returns rows
    bit-identical to an uninterrupted run.  ``tracer`` (a
    :class:`~repro.obs.trace.Tracer`) observes the cells and a final
    ``figure_done`` span; it never changes a number in the rows.

    Cells are never retried on a bumped seed — a figure presents
    specific seeds — so a failing cell raises
    :class:`~repro.errors.FigureGenerationError` with its label, error
    type and virtual time of death.  The returned data carries the run's
    :class:`~repro.harness.parallel.RunReport` as ``report``.
    """
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    if not scale > 0:
        raise ConfigError(f"scale must be positive (got {scale})")
    tasks, reduce = FIGURES[name](scale)
    journal_obj, owned = _resolve_journal(journal, name, compact_every)
    report = RunReport()
    try:
        pairs = execute_tasks(
            tasks, jobs=jobs, on_error="capture", max_retries=0, cache=cache,
            tracer=tracer, journal=journal_obj, resume=resume,
            supervisor=supervisor, report=report,
        )
    finally:
        if owned:
            journal_obj.close()
    for task, (result, failure) in zip(tasks, pairs):
        if result is None:
            raise _cell_error(name, task.label, failure)
    if tracer is not None:
        tracer.emit("harness", "figure_done", 0.0, {
            "figure": name,
            "executed": report.executed,
            "replayed": report.replayed,
            "journal_appends": report.journal_appends,
        })
    data = reduce([result for result, _failure in pairs])
    data.report = report
    return data
