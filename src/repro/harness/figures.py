"""The figure registry: each paper figure, ablation and extension, declared once.

:data:`FIGURES` maps a name to a generator ``scale -> (cells, reduce)``:
the figure's cells (one :class:`~repro.harness.parallel.SweepTask`
each) and a reducer from their results, in cell order, to a
:class:`FigureData` (headers + rows + a note about the paper's expected
shape).  Nothing else declares a figure's experiments.
:func:`generate_figure` serves the CLI's ``figure`` subcommand and
scripting use; the claim table (:mod:`repro.harness.claims`) reads the
same rows and cells at ``scale = 1``, the scale every duration below is
written for.  ``scale`` multiplies run lengths to trade time for
smoothness.

Declaring a figure's cells never runs a simulation.  The analytic
figures (fig04/05/07) have no cells, and the two extensions whose
testbeds an :class:`~repro.harness.experiment.Experiment` cannot
describe (``dualq``, ``short_fct``) simulate inside their reducer.

Cells and crash safety
----------------------
:func:`generate_figure` runs every cell of a figure in one
:func:`~repro.harness.parallel.execute_tasks` call, so a figure gets
the whole cell pipeline: ``jobs`` fans its cells out, the result cache
serves repeats, a crash-safe :class:`~repro.harness.journal.ResultJournal`
(``journal=``) fsyncs each completed cell, ``resume=True`` replays
journaled cells bit-exactly, and ``task_timeout=`` /
``heartbeat_timeout=`` kill and retry a cell's worker that hangs or
falls silent.  A failing cell raises
:class:`~repro.errors.FigureGenerationError` naming the figure, the
cell and the virtual time of death.

Example
-------
>>> from repro.harness.figures import generate_figure
>>> data = generate_figure("fig05")
>>> data.headers
['p', 'tune(p)', 'sqrt(2p)']
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import steady_state as ss
from repro.analysis.bode import margins_reno_pi, margins_reno_pi2, margins_reno_pie, margins_scal_pi
from repro.analysis.fluid import PAPER_PI2_GAINS, PAPER_PIE_GAINS, PAPER_SCAL_GAINS
from repro.aqm.adaptive import AdaptivePiAqm
from repro.aqm.dualq import DualQueueCoupledAqm
from repro.aqm.fixed import FixedProbabilityAqm
from repro.aqm.red import RedAqm
from repro.aqm.step import StepThresholdAqm
from repro.aqm.tune_table import tune_table_rows
from repro.errors import ConfigError, FigureGenerationError
from repro.harness.cache import experiment_cache_key
from repro.harness.experiment import Experiment, FlowGroup, UdpGroup
from repro.harness.factories import (
    NamedAqmFactory,
    bare_pie_factory,
    coupled_factory,
    pi2_factory,
    pi_factory,
    pie_factory,
)
from repro.harness.parallel import RunReport, SweepTask, execute_tasks
from repro.harness.repeat import _estimate
from repro.harness.scenarios import (
    MBPS,
    coexistence_pair,
    heavy_tcp,
    light_tcp,
    tcp_plus_udp,
    varying_capacity,
    varying_intensity,
)
from repro.harness.sweep import (
    PAPER_LINK_MBPS,
    PAPER_RTTS_MS,
    _grid_tasks,
    _mix_tasks,
    format_table,
)
from repro.harness.topology import Dumbbell
from repro.metrics.stats import normalized_rates
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.traffic.web import WebWorkload

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


def _pm(m):
    return float("nan") if m.phase_margin_deg is None else m.phase_margin_deg


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
    """Bode margins for reno-PIE / reno-PI2 / scal-PI (R = 100 ms)."""
    rows = []
    for pp in (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 0.6, 0.8, 1.0):
        pi2 = margins_reno_pi2(pp, 0.1, PAPER_PI2_GAINS)
        rows.append(
            (
                pp,
                _gm(margins_reno_pie(pp, 0.1, PAPER_PIE_GAINS)),
                _gm(pi2),
                _gm(margins_scal_pi(pp, 0.1, PAPER_SCAL_GAINS)),
                _pm(pi2),
            )
        )
    return [], lambda _results: FigureData(
        "Figure 7",
        ["p or p'", "GM pie [dB]", "GM pi2 [dB]", "GM scal [dB]", "PM pi2 [deg]"],
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
    """Queue-delay distributions of the four panels: 20 TCP and
    5 TCP + 2×6 Mb/s UDP, each at the 5 ms and 20 ms targets."""
    duration = 30.0 * scale
    cells = []
    for target in (0.005, 0.020):
        for scenario, tcp, udp_count in (("20 TCP", 20, 0), ("5 TCP + 2 UDP", 5, 2)):
            for name, make in (("pie", pie_factory), ("pi2", pi2_factory)):
                exp = Experiment(
                    capacity_bps=10 * MBPS,
                    duration=duration,
                    warmup=min(10.0, duration / 3),
                    aqm_factory=make(target_delay=target),
                    flows=[FlowGroup(cc="reno", count=tcp, rtt=0.100)],
                    udp=[UdpGroup(rate_bps=6 * MBPS, count=udp_count)] if udp_count else [],
                )
                cells.append((f"{target * 1e3:.0f} ms", scenario, name, exp))

    def reduce(results) -> FigureData:
        rows = []
        for (target, scenario, name, _exp), r in zip(cells, results):
            soj = r.sojourn_samples()
            rows.append(
                (target, scenario, name,
                 float(np.percentile(soj, 50)) * 1e3,
                 float(np.percentile(soj, 90)) * 1e3,
                 float(np.percentile(soj, 99)) * 1e3)
            )
        return FigureData(
            "Figure 14",
            ["target", "scenario", "aqm", "p50 [ms]", "p90 [ms]", "p99 [ms]"],
            rows,
            "paper shape: PI2's CDF ≈ PIE's in all four panels",
        )

    return [SweepTask(f"{name}@{target} {scenario}", exp)
            for target, scenario, name, exp in cells], reduce


def fig15(scale: float = 1.0) -> Figure:
    """Rate balance on a reduced 2×2 coexistence grid.

    The quick corner-point view; ``fig15_18`` is the full 5×5 grid with
    per-cell convergence budgeting that the claims read.
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


#: Figures 15–18 run length per RTT (convergence) and cap per link rate
#: (cost), in seconds at ``scale = 1``.
_CONV_DURATION = {5: 10.0, 10: 12.0, 20: 16.0, 50: 24.0, 100: 44.0}
_RATE_CAP = {4: 44.0, 12: 44.0, 40: 44.0, 120: 16.0, 200: 14.0}
_GRID_WARMUP = 8.0


def _converged(link: float, rtt: float, duration: float, warmup: float) -> bool:
    """Whether a grid cell's run length covers DCTCP's convergence time.

    A DCTCP flow grabbing its bandwidth share by additive increase needs
    on the order of BDP (in segments) round trips.  Cells that fall short
    (the high-BDP corner: 120/200 Mb/s at 50/100 ms) are reported but
    left out of the grid claims — the same corner where the paper's own
    results were corrupted by the Linux BDP-limiting bug of its
    footnote 5.
    """
    rtt_s = rtt / 1000.0
    bdp_segments = link * 1e6 * rtt_s / (8 * 1448)
    return duration >= warmup + 0.75 * bdp_segments * rtt_s


def fig15_18(scale: float = 1.0) -> Figure:
    """Figures 15–18: the full coexistence grid.

    DCTCP vs Cubic over link {4, 12, 40, 120, 200} Mb/s × RTT {5, 10,
    20, 50, 100} ms under PIE and coupled PI2, plus the ECN-Cubic vs
    Cubic control pair on a 3×3 sub-grid.  Run lengths grow with RTT
    (convergence) and shrink with link rate (cost); each row says
    whether its cell converged.
    """
    warmup = _GRID_WARMUP * scale

    def duration_for(link, rtt):
        return min(_RATE_CAP[link], _CONV_DURATION[rtt]) * scale

    cells = [
        (name, pair, link, rtt, replace(task, label=f"{name} {pair} {task.label}"))
        for pair, links, rtts in (("dctcp", PAPER_LINK_MBPS, PAPER_RTTS_MS),
                                  ("ecn-cubic", (4, 40, 200), (5, 20, 100)))
        for name, factory in (("pie", pie_factory()), ("pi2", coupled_factory()))
        for link, rtt, task in _grid_tasks(
            factory, pair, "cubic", links, rtts, None, warmup, 1, duration_for,
        )
    ]

    def reduce(results) -> FigureData:
        rows = []
        for (name, pair, link, rtt, _task), r in zip(cells, results):
            s = r.sojourn_summary(percentiles=(99,))
            rows.append(
                (name, pair, link, rtt, r.balance("cubic", pair),
                 s["mean"] * 1e3, s["p99"] * 1e3,
                 r.probability_summary()["mean"] * 100,
                 r.mean_utilization() * 100,
                 _converged(link, rtt, duration_for(link, rtt), warmup))
            )
        return FigureData(
            "Figures 15-18",
            ["aqm", "pair", "link [Mb/s]", "RTT [ms]", "Cubic/A ratio",
             "q mean [ms]", "q p99 [ms]", "p mean [%]", "util [%]", "converged"],
            rows,
            "paper shape: Cubic/DCTCP ≈ 0.1 under PIE, ≈ 1 under PI2; "
            "~20 ms delay and high utilization everywhere",
        )

    return [task for *_key, task in cells], reduce


#: Figures 19–20's flow mixes (A = DCTCP, B = Cubic) and link rate.
_MIXES = ((1, 1), (1, 9), (5, 5), (9, 1), (2, 8), (8, 2))
_MIX_CAPACITY_MBPS = 40.0


def fig19_20(scale: float = 1.0) -> Figure:
    """Figures 19–20: rate balance and normalised per-flow rates across
    six DCTCP/Cubic flow mixes at 40 Mb/s, 10 ms."""
    duration = 25.0 * scale
    cells = [
        (name, n_a, n_b, replace(task, label=f"{name} {task.label}"))
        for name, factory in (("pie", pie_factory()), ("pi2", coupled_factory()))
        for n_a, n_b, task in _mix_tasks(
            factory, "dctcp", "cubic", _MIXES, _MIX_CAPACITY_MBPS, 10.0,
            duration, min(10.0, duration / 2), 1,
        )
    ]

    def reduce(results) -> FigureData:
        rows = []
        for (name, n_a, n_b, _task), r in zip(cells, results):
            norm = [
                float(np.mean(normalized_rates(
                    r.goodputs(label), _MIX_CAPACITY_MBPS * 1e6, n_a + n_b)))
                for label in ("dctcp", "cubic")
            ]
            rows.append((name, f"A{n_a}-B{n_b}", r.balance("dctcp", "cubic"), *norm))
        return FigureData(
            "Figures 19-20",
            ["aqm", "mix (A=dctcp B=cubic)", "DCTCP/Cubic ratio",
             "DCTCP norm rate", "Cubic norm rate"],
            rows,
            "paper shape: PIE ~10 and DCTCP >> 1 >> Cubic for every mix; "
            "PI2 ≈ 1 for both",
        )

    return [task for *_key, task in cells], reduce


#: The single-flow testbed of Appendix A and the marking/SACK ablations.
_RTT_A = 0.04
_MSS = 1448


def _single_flow(cc: str, factory, capacity_bps: float, duration: float,
                 warmup: float, seed: int = 1, sack: bool = False) -> Experiment:
    """One ``cc`` flow labelled ``x`` at 40 ms behind ``factory``."""
    return Experiment(
        capacity_bps=capacity_bps, duration=duration, warmup=warmup,
        aqm_factory=factory,
        flows=[FlowGroup(cc=cc, count=1, rtt=_RTT_A, label="x", sack=sack)],
        seed=seed, record_sojourns=False,
    )


def _window(result) -> float:
    """Measured window of flow ``x`` in segments (goodput × RTT / MSS)."""
    return sum(result.goodputs("x")) * _RTT_A / (_MSS * 8)


def _fixed(p: float) -> NamedAqmFactory:
    return NamedAqmFactory(FixedProbabilityAqm, p=p)


def appA(scale: float = 1.0) -> Figure:
    """Appendix A: steady-state windows against equations (5)–(14) under
    an idealised constant-probability marker/dropper, plus the coupling
    check (a CReno flow at pc = (ps/1.19)² matches DCTCP at ps)."""
    pc = ss.coupled_classic_probability(0.1)
    cases = (
        ("reno", 0.003, ss.window_reno, "eq(5) 1.22/sqrt(p)"),
        ("reno", 0.01, ss.window_reno, "eq(5) 1.22/sqrt(p)"),
        ("ecn-cubic", 0.01, ss.window_creno, "eq(7) 1.68/sqrt(p)"),
        ("cubic", 0.01, ss.window_creno, "eq(7) 1.68/sqrt(p)"),
        ("dctcp", 0.02, ss.window_dctcp, "eq(11) 2/p"),
        ("dctcp", 0.05, ss.window_dctcp, "eq(11) 2/p"),
        ("dctcp", 0.1, ss.window_dctcp, "eq(11) 2/p"),
        ("ecn-cubic", pc, ss.window_creno, "eq(14) pc=(0.1/1.19)^2"),
    )
    tasks = [
        SweepTask(f"{cc} p={p:.4g}", _single_flow(
            cc, _fixed(p), 200e6, 50.0 * scale, 15.0 * scale, seed=5))
        for cc, p, _law, _eq in cases
    ]

    def reduce(results) -> FigureData:
        rows = [(cc, p, _window(r), law(p), eq)
                for (cc, p, law, eq), r in zip(cases, results)]
        return FigureData(
            "Appendix A", ["cc", "p", "W measured", "W analytic", "equation"],
            rows, "loss-based CCs run below the law by NewReno recovery "
            "costs; ECN-based ones match",
        )

    return tasks, reduce


def abl_bare_pie(scale: float = 1.0) -> Figure:
    """§5's control experiment: full PIE vs bare-PIE (every heuristic
    off) on the light and heavy steady-state loads."""
    cells = [
        (label, name, scenario(factory, duration=40.0 * scale))
        for label, scenario in (("5 TCP", light_tcp), ("50 TCP", heavy_tcp))
        for name, factory in (("pie", pie_factory()), ("bare-pie", bare_pie_factory()))
    ]

    def reduce(results) -> FigureData:
        rows = []
        for (label, name, _exp), r in zip(cells, results):
            soj = r.sojourn_samples()
            rows.append((label, name, float(np.mean(soj)) * 1e3,
                         float(np.percentile(soj, 99)) * 1e3, r.mean_utilization()))
        return FigureData(
            "Ablation: full PIE vs bare-PIE",
            ["scenario", "aqm", "q mean [ms]", "q p99 [ms]", "util"],
            rows, "paper (§5): 'no difference in any experiment'",
        )

    return [SweepTask(f"{label}/{name}", exp) for label, name, exp in cells], reduce


def abl_dctcp_marking(scale: float = 1.0) -> Figure:
    """DCTCP's window exponent B (W ∝ 1/p^B) under probabilistic vs
    step-threshold marking: B = 1 (eq 11) vs B = 2 (eq 12)."""
    duration, warmup = 40.0 * scale, 15.0 * scale
    probs = (0.04, 0.16)
    capacities = (25e6, 100e6)
    step = NamedAqmFactory(StepThresholdAqm, threshold_bytes=10_000)
    tasks = [
        SweepTask(f"probabilistic p={p}", _single_flow(
            "dctcp", _fixed(p), 100e6, duration, warmup))
        for p in probs
    ] + [
        SweepTask(f"step {c / 1e6:.0f}Mb/s", _single_flow(
            "dctcp", step, c, duration, warmup))
        for c in capacities
    ]

    def reduce(results) -> FigureData:
        ws = [_window(r) for r in results]
        # Step marking makes p endogenous: the marked fraction is read
        # back from the AQM, and B is fitted across two BDPs.
        fractions = [r.telemetry["aqm.probability"] for r in results[2:]]
        b_prob = -(math.log(ws[1] / ws[0]) / math.log(probs[1] / probs[0]))
        b_step = -(math.log(ws[3] / ws[2]) / math.log(fractions[1] / fractions[0]))
        rows = [("probabilistic", p, w, b_prob) for p, w in zip(probs, ws)]
        rows += [("step", f, w, b_step) for f, w in zip(fractions, ws[2:])]
        return FigureData(
            "Ablation: DCTCP marking type",
            ["marker", "p or fraction", "W measured", "fitted B"], rows,
            "paper: B=1 probabilistic eq(11); B=2 step eq(12)",
        )

    return tasks, reduce


def abl_decision_modes(scale: float = 1.0) -> Figure:
    """§5: PI2's software (multiply) and hardware (two-randoms) drop
    decisions give the same system-level results, over seeds 1–3."""
    modes, seeds = ("multiply", "two-randoms"), (1, 2, 3)
    tasks = [
        SweepTask(f"{mode} seed {seed}", Experiment(
            capacity_bps=10 * MBPS, duration=25.0 * scale, warmup=10.0 * scale,
            aqm_factory=pi2_factory(decision_mode=mode),
            flows=[FlowGroup(cc="reno", count=5, rtt=0.05)],
            record_sojourns=False, seed=seed,
        ))
        for mode in modes for seed in seeds
    ]
    metrics = (
        lambda r: r.queue_delay.mean(10.0 * scale),
        lambda r: r.probability.mean(10.0 * scale),
        lambda r: sum(r.goodputs("reno")),
    )

    def reduce(results) -> FigureData:
        rows = []
        for i, mode in enumerate(modes):
            runs = results[i * len(seeds):(i + 1) * len(seeds)]
            row = [mode]
            for metric in metrics:
                est = _estimate([float(metric(r)) for r in runs])
                row += [est.mean, est.ci95]
            rows.append(tuple(row))
        return FigureData(
            "Ablation: PI2 decision implementations",
            ["mode", "delay [s]", "delay ±95%", "p", "p ±95%",
             "goodput [b/s]", "goodput ±95%"],
            rows, "paper (§5): the two implementations are equivalent",
        )

    return tasks, reduce


def abl_k_factor(scale: float = 1.0) -> Figure:
    """The coupling factor k: analytic 1.19 vs deployed 2 (and 4), on
    one DCTCP and one Cubic flow at 40 Mb/s, 10 ms."""
    ks = (1.19, 2.0, 4.0)
    tasks = [
        SweepTask(f"k={k}", coexistence_pair(
            coupled_factory(k=k), duration=30.0 * scale, warmup=10.0 * scale))
        for k in ks
    ]

    def reduce(results) -> FigureData:
        return FigureData(
            "Ablation: coupling factor k", ["k", "Cubic/DCTCP ratio"],
            [(k, r.balance("cubic", "dctcp")) for k, r in zip(ks, results)],
            "paper: k=1.19 analytic, k=2 deployed (validated empirically)",
        )

    return tasks, reduce


def abl_rtt_sensitivity(scale: float = 1.0) -> Figure:
    """Equation (14) assumes equal RTTs: DCTCP at 5/20/60 ms against a
    20 ms Cubic flow under coupled PI2 at 40 Mb/s."""
    rtts = (0.005, 0.020, 0.060)
    tasks = [
        SweepTask(f"dctcp rtt={rtt * 1e3:g}ms", Experiment(
            capacity_bps=40 * MBPS, duration=30.0 * scale, warmup=10.0 * scale,
            aqm_factory=coupled_factory(),
            flows=[FlowGroup(cc="dctcp", count=1, rtt=rtt, label="dctcp"),
                   FlowGroup(cc="cubic", count=1, rtt=0.020, label="cubic")],
        ))
        for rtt in rtts
    ]

    def reduce(results) -> FigureData:
        return FigureData(
            "Ablation: RTT sensitivity of the coupling",
            ["dctcp RTT", "cubic RTT", "DCTCP/Cubic ratio"],
            [(f"{rtt * 1e3:g} ms", "20 ms", r.balance("dctcp", "cubic"))
             for rtt, r in zip(rtts, results)],
            "eq (14) assumes equal RTTs; the balance tilts with the RTT ratio",
        )

    return tasks, reduce


def abl_sack(scale: float = 1.0) -> Figure:
    """SACK vs NewReno recovery: single-flow windows under i.i.d. loss,
    and Figure 15's balance with the Cubic flow running SACK."""
    probs = (0.01, 0.03)
    tasks = [
        SweepTask(f"loss p={p} sack={sack}", _single_flow(
            "reno", _fixed(p), 200e6, 40.0 * scale, 10.0 * scale, sack=sack))
        for p in probs for sack in (False, True)
    ] + [
        SweepTask(f"coexistence sack={sack}", Experiment(
            capacity_bps=40 * MBPS, duration=30.0 * scale, warmup=10.0 * scale,
            aqm_factory=coupled_factory(),
            flows=[FlowGroup(cc="dctcp", count=1, rtt=0.010, label="dctcp"),
                   FlowGroup(cc="cubic", count=1, rtt=0.010, label="cubic",
                             sack=sack)],
        ))
        for sack in (False, True)
    ]

    def reduce(results) -> FigureData:
        rows = [
            (f"W at p={p}", _window(results[2 * i]), _window(results[2 * i + 1]),
             ss.window_reno(p))
            for i, p in enumerate(probs)
        ]
        rows.append(("Cubic/DCTCP ratio",
                     *(r.balance("cubic", "dctcp") for r in results[4:]), 1.0))
        return FigureData(
            "Ablation: SACK vs NewReno",
            ["case", "newreno", "sack", "analytic"], rows,
            "the testbed senders had SACK; it moves the balance toward 1",
        )

    return tasks, reduce


def _stationary_cells(configs, rtt: float, scale: float) -> List[SweepTask]:
    """Five Reno flows at 10 Mb/s for 40 s, one cell per named AQM."""
    return [
        SweepTask(name, Experiment(
            capacity_bps=10 * MBPS, duration=40.0 * scale, warmup=10.0 * scale,
            aqm_factory=factory, flows=[FlowGroup(cc="reno", count=5, rtt=rtt)],
            sample_period=0.1,
        ))
        for name, factory in configs
    ]


def abl_square_vs_tune(scale: float = 1.0) -> Figure:
    """The squared output stage vs PIE's tune table vs neither, on the
    light load where fixed-gain PI over-reacts."""
    tasks = _stationary_cells(
        (("pi", pi_factory()), ("pie-tune", bare_pie_factory()),
         ("pi2", pi2_factory())), 0.100, scale)
    t0, t1 = 10.0 * scale, 40.0 * scale

    def reduce(results) -> FigureData:
        rows = []
        for task, r in zip(tasks, results):
            p = r.probability.window(t0, t1)
            qd = r.queue_delay.window(t0, t1)
            rows.append((task.label, float(np.mean(qd)) * 1e3,
                         float(np.std(qd)) * 1e3, float(np.mean(p == 0)),
                         float(np.mean(r.utilization.window(t0, t1)))))
        return FigureData(
            "Ablation: square vs tune table vs neither",
            ["config", "q mean [ms]", "q std [ms]", "p=0 frac", "util"], rows,
            "un-linearised PI collapses p and loses utilization",
        )

    return tasks, reduce


def related_work(scale: float = 1.0) -> Figure:
    """Three linearisations head to head: PIE's stepped table,
    continuous √(2p) self-tuning and PI2's squaring."""
    tasks = _stationary_cells(
        (("pie-table", pie_factory()),
         ("adaptive-sqrt", NamedAqmFactory(AdaptivePiAqm)),
         ("pi2-square", pi2_factory())), 0.05, scale)
    t0, t1 = 10.0 * scale, 40.0 * scale

    def reduce(results) -> FigureData:
        rows = []
        for task, r in zip(tasks, results):
            soj = r.sojourn_samples()
            p = r.probability.window(t0, t1)
            rows.append((task.label, float(np.mean(soj)) * 1e3,
                         float(np.percentile(soj, 99)) * 1e3,
                         float(np.mean(p)), float(np.mean(p == 0)),
                         r.mean_utilization()))
        return FigureData(
            "Related work: table vs sqrt-tuning vs squaring",
            ["strategy", "q mean [ms]", "q p99 [ms]", "p mean", "p=0 frac", "util"],
            rows, "all three hold the target (§4 equivalence)",
        )

    return tasks, reduce


def lineage(scale: float = 1.0) -> Figure:
    """§3's lineage at 10 Mb/s, 50 ms Reno: RED's standing queue grows
    from 4 to 24 flows while PIE and PI2 hold their target, and PIE
    controls alike whether it divides the backlog by the exact capacity
    or by its measured departure rate (8 flows, seed 3)."""
    duration, warmup = 30.0 * scale, 10.0 * scale

    def cell(factory, flows: int, seed: int) -> Experiment:
        return Experiment(
            capacity_bps=10 * MBPS, duration=duration, warmup=warmup,
            aqm_factory=factory, flows=[FlowGroup(cc="reno", count=flows, rtt=0.05)],
            seed=seed,
        )

    cells = [
        (name, flows, "exact", cell(factory, flows, 1))
        for name, factory in (("red", NamedAqmFactory(RedAqm)), ("pie", pie_factory()),
                              ("pi2", pi2_factory()))
        for flows in (4, 24)
    ] + [
        ("pie", 8, estimate, cell(pie_factory(**kwargs), 8, 3))
        for estimate, kwargs in (("exact", {}), ("measured", {"dq_rate_estimator": True}))
    ]

    def reduce(results) -> FigureData:
        rows = []
        for (name, flows, estimate, _exp), r in zip(cells, results):
            soj = r.sojourn_samples()
            rows.append((name, flows, estimate, float(np.mean(soj)) * 1e3,
                         float(np.percentile(soj, 99)) * 1e3, r.mean_utilization() * 100))
        return FigureData(
            "Section 3 lineage",
            ["aqm", "flows", "delay estimate", "q mean [ms]", "q p99 [ms]", "util [%]"],
            rows, "paper (§3): RED pushes back with delay; the PI family holds "
            "its target; PIE's measured rate controls like the exact one",
        )

    return [SweepTask(f"{name} {estimate} {flows} flows", exp)
            for name, flows, estimate, exp in cells], reduce


def _dualq_run(kind: str, capacity: float, rtt: float, duration: float,
               warmup: float, seed: int = 1) -> Tuple:
    """One DCTCP and one Cubic flow behind a single coupled queue or a
    DualQ; per-class mean sojourn after ``warmup``, balance, goodput."""
    sim = Simulator()
    streams = RandomStreams(seed)
    l_soj, c_soj = [], []

    def on_sojourn(now, sojourn, pkt):
        if now < warmup:
            return
        (l_soj if pkt.is_scalable else c_soj).append(sojourn)

    if kind == "single-queue":
        aqm = coupled_factory()(streams.stream("aqm"))
        queue = AQMQueue(sim, aqm, capacity, on_sojourn=on_sojourn)
        bed = Dumbbell(sim, streams, capacity, aqm=None, queue=queue,
                       record_sojourns=False)
        bed.aqm = aqm
    else:
        queue = DualQueueCoupledAqm(
            sim, capacity, rng=streams.stream("aqm"), on_sojourn=on_sojourn
        )
        bed = Dumbbell(sim, streams, capacity, aqm=None, queue=queue,
                       record_sojourns=False)
    bed.add_tcp_flow("dctcp", rtt=rtt, label="dctcp")
    bed.add_tcp_flow("cubic", rtt=rtt, label="cubic")
    sim.at(warmup, bed.flows.open_windows, warmup)
    sim.run(duration)
    cubic = sum(bed.goodput_bps("cubic", duration))
    dctcp = sum(bed.goodput_bps("dctcp", duration))
    return (kind, float(np.mean(l_soj)) * 1e3, float(np.mean(c_soj)) * 1e3,
            cubic / dctcp if dctcp else float("inf"), (cubic + dctcp) / capacity)


def dualq(scale: float = 1.0) -> Figure:
    """§7's forward pointer: a single coupled queue vs the DualQ Coupled
    AQM for one DCTCP and one Cubic flow at 40 Mb/s, 10 ms.  The DualQ
    testbed is built by hand, so the runs happen in the reducer."""

    def reduce(_results) -> FigureData:
        return FigureData(
            "DualQ preview",
            ["arrangement", "L (dctcp) delay [ms]", "C (cubic) delay [ms]",
             "Cubic/DCTCP ratio", "goodput/cap"],
            [_dualq_run(kind, 40 * MBPS, 0.010, 30.0 * scale, 10.0 * scale)
             for kind in ("single-queue", "dualq")],
            "paper §7: a single queue makes Scalable traffic suffer Classic "
            "delay; DualQ isolates it",
        )

    return [], reduce


def _web_run(factory, arrival_rate: float, capacity: float, rtt: float,
             duration: float, until: float, seed: int = 3):
    """A Poisson stream of heavy-tailed short Cubic flows; returns the
    finished :class:`~repro.traffic.web.WebWorkload`."""
    sim = Simulator()
    streams = RandomStreams(seed)
    bed = Dumbbell(sim, streams, capacity, factory(streams.stream("aqm")),
                   record_sojourns=False)

    def spawn(size, on_complete):
        bed.add_tcp_flow(
            "cubic", rtt=rtt, start=sim.now, flow_size=size, jitter=0.0,
        ).on_complete = on_complete

    workload = WebWorkload(
        sim, spawn, arrival_rate=arrival_rate, rng=streams.stream("web"),
        size_max=500,
    )
    workload.start(0.5, until=until)
    sim.run(duration)
    return workload


def short_fct(scale: float = 1.0) -> Figure:
    """§6: short-flow completion times under light and heavy web-like
    load with PIE, bare-PIE and PI2 at 20 Mb/s, 20 ms.  The web workload
    needs a hand-built testbed, so the runs happen in the reducer."""
    duration = 30.0 * scale

    def reduce(_results) -> FigureData:
        rows = []
        for load, rate in (("light", 20.0), ("heavy", 60.0)):
            for name, factory in (("pie", pie_factory()),
                                  ("bare-pie", bare_pie_factory()),
                                  ("pi2", pi2_factory())):
                wl = _web_run(factory, rate, 20 * MBPS, 0.020, duration,
                              duration - 5.0 * scale)
                rows.append((load, name, len(wl.completion_times),
                             wl.mean_fct(), wl.percentile_fct(95)))
        return FigureData(
            "Short-flow completion times",
            ["load", "aqm", "flows done", "mean FCT [s]", "p95 FCT [s]"], rows,
            "paper (§6): PIE, bare-PIE and PI2 essentially the same",
        )

    return [], reduce


#: The registry: every figure, ablation and extension, by name.
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
    "fig15_18": fig15_18,
    "fig19": fig19,
    "fig19_20": fig19_20,
    "appA": appA,
    "abl_bare_pie": abl_bare_pie,
    "abl_dctcp_marking": abl_dctcp_marking,
    "abl_decision_modes": abl_decision_modes,
    "abl_k_factor": abl_k_factor,
    "abl_rtt_sensitivity": abl_rtt_sensitivity,
    "abl_sack": abl_sack,
    "abl_square_vs_tune": abl_square_vs_tune,
    "related_work": related_work,
    "lineage": lineage,
    "dualq": dualq,
    "short_fct": short_fct,
}


def _resolve_journal(journal, name: str):
    """Resolve the ``journal`` argument into (ResultJournal|None, owned).

    A path names a *directory* holding one journal per figure
    (``<dir>/<name>.journal``), so one ``--journal`` directory serves
    every figure; a ready-made
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
    return ResultJournal(root / f"{name}.journal"), True


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


def _run_cells(cells: Dict[str, List[SweepTask]], **pipeline):
    """Run the cells of one or more figures in one
    :func:`~repro.harness.parallel.execute_tasks` call.

    Cells with equal :func:`~repro.harness.cache.experiment_cache_key`
    run once and every figure that declares them gets the result.
    ``pipeline`` is passed through (``jobs``, ``cache``, ``journal``,
    ...).  Returns ``({figure: results in cell order}, report)``; a cell
    that failed raises :class:`~repro.errors.FigureGenerationError`
    naming the first figure that declared it.
    """
    unique: List[Tuple[str, SweepTask]] = []
    slot: Dict[str, int] = {}
    picks: Dict[str, List[int]] = {}
    for name, tasks in cells.items():
        picks[name] = []
        for task in tasks:
            key = experiment_cache_key(task.experiment)
            if key not in slot:
                if key is not None:
                    slot[key] = len(unique)
                picks[name].append(len(unique))
                unique.append((name, task))
            else:
                picks[name].append(slot[key])
    report = RunReport()
    pairs = execute_tasks(
        [task for _name, task in unique], on_error="capture", max_retries=0,
        report=report, **pipeline,
    )
    for (name, task), (result, failure) in zip(unique, pairs):
        if result is None:
            raise _cell_error(name, task.label, failure)
    return {name: [pairs[i][0] for i in picked]
            for name, picked in picks.items()}, report


def generate_figure(
    name: str, scale: float = 1.0, jobs=None, cache=None, tracer=None,
    journal=None, resume: bool = False, task_timeout: Optional[float] = None,
    heartbeat_timeout: Optional[float] = None,
) -> FigureData:
    """Generate one figure's data by registry name.

    The figure's cells run in one
    :func:`~repro.harness.parallel.execute_tasks` call: ``jobs`` fans
    them out over supervised worker processes (None serial, 0 one worker
    per CPU), where ``task_timeout`` / ``heartbeat_timeout`` kill and
    retry a cell's worker past that many wall-clock or silent seconds;
    ``cache`` (a :class:`~repro.harness.cache.ResultCache`) reuses
    already-simulated cells across invocations.  ``journal`` (a
    directory path or a :class:`~repro.harness.journal.ResultJournal`)
    makes every completed cell durable as it finishes (one journal per
    figure name under a directory) and ``resume=True`` replays journaled
    cells, so a figure run killed mid-sweep and resumed returns rows
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
    if not (scale > 0 and math.isfinite(scale)):
        raise ConfigError(f"scale must be positive and finite (got {scale})")
    tasks, reduce = FIGURES[name](scale)
    journal_obj, owned = _resolve_journal(journal, name)
    try:
        results, report = _run_cells(
            {name: tasks}, jobs=jobs, cache=cache, tracer=tracer,
            journal=journal_obj, resume=resume, task_timeout=task_timeout,
            heartbeat_timeout=heartbeat_timeout,
        )
    finally:
        if owned:
            journal_obj.close()
    if tracer is not None:
        tracer.emit("harness", "figure_done", 0.0, {
            "figure": name,
            "executed": report.executed,
            "replayed": report.replayed,
            "journal_appends": report.journal_appends,
        })
    data = reduce(results[name])
    data.report = report
    return data
