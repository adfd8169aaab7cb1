"""The paper's claims, as one table over the figure registry.

Each :class:`Claim` reads one figure of
:data:`~repro.harness.figures.FIGURES` at ``scale = 1`` and reduces it
to one number: an extractor over the figure's rows and its cells'
results (only the frozen-result API — the
:class:`~repro.harness.experiment.ResultMetrics` read-outs and
``telemetry`` — so a claim reads the same value whichever backend ran
the cell).  The number must fall strictly inside the claim's tolerance
band.  Each claim also records the paper figure or equation it checks,
the paper's value where the paper gives one, and a status:

* ``match`` — the measured shape is the paper's;
* ``partial`` — the paper's direction, with a weaker magnitude;
* ``expected-divergence`` — the simulator departs from the paper for a
  documented structural reason, and the band pins the divergent value
  on both sides so that it cannot change silently.

:func:`run_claim_figures` runs the claimed figures the way
:func:`~repro.harness.figures.generate_figure` runs one: every cell
through one :func:`~repro.harness.parallel.execute_tasks` call (one
worker per CPU), cells shared between figures computed once.
``python -m pytest benchmarks -q`` asserts every claim over that run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import steady_state as ss
from repro.harness.figures import (
    _MIX_CAPACITY_MBPS,
    FIGURES,
    FigureData,
    _run_cells,
    _stage_warmup,
)
from repro.harness.parallel import RunReport, SweepTask
from repro.metrics.stats import geometric_mean, normalized_rates

__all__ = ["Claim", "CLAIMS", "FigureRun", "STATUSES", "run_claim_figures"]

MATCH, PARTIAL, DIVERGENCE = "match", "partial", "expected-divergence"
#: The allowed values of :attr:`Claim.status`.
STATUSES = (MATCH, PARTIAL, DIVERGENCE)


class FigureRun:
    """One figure's rows and cell results, as the claims read them."""

    def __init__(self, data: FigureData, tasks: Sequence[SweepTask], results):
        self.data = data
        #: Rows as dicts keyed by the figure's headers.
        self.rows = [dict(zip(data.headers, row)) for row in data.rows]
        #: Cell results in cell order, and by cell label.
        self.results = list(results)
        self.cells = {task.label: r for task, r in zip(tasks, self.results)}

    def column(self, header: str, *key) -> list:
        """``header`` of every row whose leading columns equal ``key``."""
        return [row[header] for row in self.rows
                if tuple(row.values())[:len(key)] == key]

    def value(self, header: str, *key):
        """``header`` of the one row whose leading columns equal ``key``."""
        found = self.column(header, *key)
        if len(found) != 1:
            raise KeyError(f"{self.data.figure}: {len(found)} rows match {key}")
        return found[0]


@dataclass(frozen=True)
class Claim:
    """One paper claim: a number read from a figure and its band."""

    id: str
    #: The paper's figure, section or equation.
    paper: str
    #: The :data:`~repro.harness.figures.FIGURES` entry it reads.
    figure: str
    extract: Callable[[FigureRun], float]
    lo: Optional[float] = None
    hi: Optional[float] = None
    paper_value: Optional[float] = None
    status: str = MATCH

    def holds(self, value: float) -> bool:
        """Whether ``value`` lies strictly inside the band (NaN never does)."""
        return ((self.lo is None or value > self.lo)
                and (self.hi is None or value < self.hi))

    def band(self) -> str:
        """The band as text, e.g. ``0.4 < x < 2.5``."""
        lo = "" if self.lo is None else f"{self.lo:g} < "
        hi = "" if self.hi is None else f" < {self.hi:g}"
        return f"{lo}x{hi}"


def run_claim_figures(claims: Sequence[Claim]) -> Tuple[Dict[str, FigureRun], RunReport]:
    """Run every figure the claims read, at ``scale = 1``.

    All cells go through one ``execute_tasks`` call at ``jobs=0`` (one
    worker per CPU), each distinct cell once; figures without cells
    compute in their reducer.  Returns ``({figure: run}, report)``.
    """
    names = list(dict.fromkeys(claim.figure for claim in claims))
    declared = {name: FIGURES[name](1.0) for name in names}
    results, report = _run_cells(
        {name: tasks for name, (tasks, _reduce) in declared.items()}, jobs=0,
    )
    runs = {
        name: FigureRun(reduce(results[name]), tasks, results[name])
        for name, (tasks, reduce) in declared.items()
    }
    return runs, report


# -- extractor helpers ----------------------------------------------------

def _v(header: str, *key) -> Callable[[FigureRun], float]:
    return lambda run: run.value(header, *key)


def _min(values) -> float:
    """Smallest value; NaN if any value is NaN (so the band fails)."""
    return float(np.min(list(values)))


def _max(values) -> float:
    """Largest value; NaN if any value is NaN (so the band fails)."""
    return float(np.max(list(values)))


def _tune_ratios(run: FigureRun) -> List[float]:
    """Fig 5's tune(p)/√(2p) over the table's covered range."""
    return [row["tune(p)"] / row["sqrt(2p)"] for row in run.rows
            if 1e-6 <= row["p"] <= 1.0 and row["sqrt(2p)"] > 0]


_STAGES = ("1 (10 flows)", "2 (30 flows)", "3 (50 flows)", "4 (30 flows)",
           "5 (10 flows)")


def _p_zero(run: FigureRun, aqm: str, s: int) -> float:
    """Fraction of stage ``s``'s probability samples at exactly zero."""
    r = run.cells[aqm]
    stage = r.duration / 5
    p = r.probability.window(s * stage + _stage_warmup(stage), (s + 1) * stage)
    return float(np.mean(p == 0))


def _fig06_target_gap(run: FigureRun) -> float:
    pi = run.value("q mean [ms]", "pi", _STAGES[4])
    pi2 = run.value("q mean [ms]", "pi2", _STAGES[4])
    return abs(pi2 - 20.0) - abs(pi - 20.0)


def _fig07_scal_gap(run: FigureRun) -> float:
    return _max(abs(run.value("GM pi2 [dB]", pp) - run.value("GM scal [dB]", pp))
                for pp in (0.01, 0.1, 0.3))


_TCP_LOADS = ("5 TCP", "50 TCP")
_UDP_LOAD = "5 TCP + 2 UDP"


def _fig11_util(run: FigureRun, loads) -> float:
    return _min(run.cells[f"{load}/{aqm}"].mean_utilization()
                for load in loads for aqm in ("pie", "pi2"))


def _fig11_startup(run: FigureRun) -> float:
    """PI2's start-up peak (first 10 s) over PIE's, worst TCP load."""
    def peak(load, aqm):
        return run.cells[f"{load}/{aqm}"].queue_delay.max(0.0, 10.0) * 1e3
    return _max(peak(load, "pi2") / peak(load, "pie") for load in _TCP_LOADS)


def _fig12_final_mean(run: FigureRun) -> float:
    """Worst mean queue delay in the settled tail of the last 100 Mb/s stage."""
    def tail(r):
        stage = r.duration / 3
        return r.queue_delay.mean(2 * stage + min(5.0, stage / 3.0), 3 * stage) * 1e3
    return _max(tail(run.cells[aqm]) for aqm in ("pie", "pi2"))


def _fig13_overshoot(run: FigureRun) -> float:
    return _max(run.value("q peak [ms]", "pi2", s) / run.value("q peak [ms]", "pie", s)
                for s in _STAGES[1:3])


def _fig14_median(run: FigureRun, target: str, scenario: str, aqm: str) -> float:
    return run.value("p50 [ms]", target, scenario, aqm)


def _fig14_tracks_pie(run: FigureRun) -> float:
    return _max(_fig14_median(run, t, "20 TCP", "pi2")
                - (_fig14_median(run, t, "20 TCP", "pie") * 2.5 + 2.0)
                for t in ("5 ms", "20 ms"))


def _fig14_target_moves(run: FigureRun) -> float:
    return _min(_fig14_median(run, "20 ms", "20 TCP", aqm)
                - _fig14_median(run, "5 ms", "20 TCP", aqm) for aqm in ("pie", "pi2"))


def _grid(run: FigureRun, aqm: str, pair: str = "dctcp", converged: bool = True):
    """Fig 15–18 results of one AQM and pair, converged cells only by default."""
    return [r for row, r in zip(run.rows, run.results)
            if row["aqm"] == aqm and row["pair"] == pair
            and (row["converged"] or not converged)]


def _balance_gm(run: FigureRun, aqm: str, pair: str = "dctcp") -> float:
    return geometric_mean([r.balance("cubic", pair) for r in _grid(run, aqm, pair)])


def _pi2_outliers(run: FigureRun) -> int:
    """Converged PI2 cells whose Cubic/DCTCP ratio is outside (0.2, 5)."""
    ratios = [r.balance("cubic", "dctcp") for r in _grid(run, "pi2")]
    return len(ratios) - len([x for x in ratios if 0.2 < x < 5.0])


def _grid_delay(run: FigureRun, aqm: str) -> float:
    return float(np.mean([r.sojourn_summary(percentiles=(99,))["mean"]
                          for r in _grid(run, aqm)]))


def _grid_utils(run: FigureRun, aqm: str) -> List[float]:
    return [r.utilization_summary()["mean"] for r in _grid(run, aqm)]


def _coupling_error(run: FigureRun) -> float:
    """Worst |ps / (2 √pc) − 1| over converged PI2 cells (k = 2)."""
    errors = []
    for r in _grid(run, "pi2"):
        ps, pc = r.telemetry["aqm.probability"], r.telemetry["aqm.classic_probability"]
        if pc > 1e-6:
            errors.append(abs(ps / (2 * math.sqrt(pc)) - 1.0))
    return _max(errors)


def _classic_minus_scalable(run: FigureRun) -> float:
    """Largest pc − ps over every PI2 cell with 0 < ps < 1."""
    return _max(r.telemetry["aqm.classic_probability"] - r.telemetry["aqm.probability"]
                for r in _grid(run, "pi2", converged=False)
                if 0 < r.telemetry["aqm.probability"] < 1)


def _mix_ratios(run: FigureRun, aqm: str) -> List[float]:
    return run.column("DCTCP/Cubic ratio", aqm)


def _mix_gap(run: FigureRun) -> float:
    """Worst |log PI2 ratio| − |log PIE ratio| over the mixes."""
    return _max(abs(np.log(b)) - abs(np.log(a))
                for a, b in zip(_mix_ratios(run, "pie"), _mix_ratios(run, "pi2")))


def _norm_rate(run: FigureRun, aqm: str, label: str) -> float:
    """Mean normalised rate of one class, pooled over every mix's flows."""
    pooled = []
    for row, r in zip(run.rows, run.results):
        if row["aqm"] == aqm:
            total = len(r.goodputs("dctcp")) + len(r.goodputs("cubic"))
            pooled.extend(normalized_rates(
                r.goodputs(label), _MIX_CAPACITY_MBPS * 1e6, total))
    return float(np.mean(pooled))


def _law_ratio(cc: str, p: float) -> Callable[[FigureRun], float]:
    return lambda run: run.value("W measured", cc, p) / run.value("W analytic", cc, p)


def _coupled_windows(run: FigureRun) -> float:
    pc = ss.coupled_classic_probability(0.1)
    return run.value("W measured", "ecn-cubic", pc) / run.value("W measured", "dctcp", 0.1)


def _bare_pie_gap(header: str) -> Callable[[FigureRun], float]:
    return lambda run: _max(abs(run.value(header, s, "pie") - run.value(header, s, "bare-pie"))
                            for s in _TCP_LOADS)


def _exponent(marker: str) -> Callable[[FigureRun], float]:
    return lambda run: run.column("fitted B", marker)[0]


def _ci_gap(metric: str, ci: str) -> Callable[[FigureRun], float]:
    """How far apart the two modes' 95 % intervals are (≤ 0: they overlap)."""
    def gap(run):
        (am, aw), (bm, bw) = ((run.value(metric, mode), run.value(ci, mode))
                              for mode in ("multiply", "two-randoms"))
        return max((am - aw) - (bm + bw), (bm - bw) - (am + aw))
    return gap


def _mode_gap(metric: str, relative: bool = False) -> Callable[[FigureRun], float]:
    def gap(run):
        a, b = run.value(metric, "multiply"), run.value(metric, "two-randoms")
        return abs(a - b) / a if relative else abs(a - b)
    return gap


def _k_ratios(run: FigureRun) -> List[float]:
    return [run.value("Cubic/DCTCP ratio", k) for k in (1.19, 2.0, 4.0)]


def _k_monotone(run: FigureRun) -> float:
    r1, r2, r4 = _k_ratios(run)
    return min(r2 - r1, r4 - r2)


def _k_nearest(run: FigureRun) -> float:
    d1, d2, d4 = (abs(np.log(r)) for r in _k_ratios(run))
    return d2 - min(d1, d4)


def _rtt(dctcp: str) -> Callable[[FigureRun], float]:
    return _v("DCTCP/Cubic ratio", dctcp)


def _sack_gain(run: FigureRun, per_law: bool) -> float:
    return _min((row["sack"] - row["newreno"]) if not per_law
                else (row["sack"] / row["analytic"] - row["newreno"] / row["analytic"])
                for row in run.rows if row["case"].startswith("W at"))


def _sack_balance(run: FigureRun) -> float:
    off, on = (run.value(h, "Cubic/DCTCP ratio") for h in ("newreno", "sack"))
    return abs(1 - on) - abs(1 - off)


def _ratio_of_extremes(values) -> float:
    return _max(values) / _min(values)


def _lineage_mean(run: FigureRun, aqm: str, flows: int, estimate: str = "exact") -> float:
    return run.value("q mean [ms]", aqm, flows, estimate)


def _load_shift(aqm: str) -> Callable[[FigureRun], float]:
    """|mean delay at 24 flows − at 4 flows| in ms."""
    return lambda run: abs(_lineage_mean(run, aqm, 24) - _lineage_mean(run, aqm, 4))


def _fct_parity(load: str) -> Callable[[FigureRun], float]:
    return lambda run: _ratio_of_extremes(run.column("mean FCT [s]", load))


#: Every claim, in paper order.
CLAIMS: Tuple[Claim, ...] = (
    # -- Figure 4: PI-on-Reno gain margins (analytic) ----------------------
    Claim("fig04.fixed_gain_unstable_low_p", "Fig 4", "fig04",
          _v("GM tune=1 [dB]", 1e-4), hi=0.0),
    Claim("fig04.auto_tune_positive", "Fig 4", "fig04",
          lambda run: _min(g for g in run.column("GM auto [dB]") if not math.isnan(g)),
          lo=0.0),
    Claim("fig04.smaller_tune_shifts_up", "Fig 4", "fig04",
          lambda run: run.value("GM tune=1/8 [dB]", 1e-4) - run.value("GM tune=1 [dB]", 1e-4),
          lo=0.0),
    Claim("fig04.fixed_gain_db_per_decade", "Fig 4", "fig04",
          lambda run: run.value("GM tune=1 [dB]", 1e-2) - run.value("GM tune=1 [dB]", 1e-3),
          lo=7.0, hi=13.0, paper_value=10.0),
    # -- Figure 5: PIE's tune table vs sqrt(2p) (analytic) -----------------
    Claim("fig05.tune_over_sqrt_min", "Fig 5", "fig05",
          lambda run: _min(_tune_ratios(run)), lo=0.125),
    Claim("fig05.tune_over_sqrt_max", "Fig 5", "fig05",
          lambda run: _max(_tune_ratios(run)), hi=8.0),
    Claim("fig05.tune_unbiased", "Fig 5", "fig05",
          lambda run: abs(sum(math.log(x) for x in _tune_ratios(run))
                          / len(_tune_ratios(run))),
          hi=math.log(2.5), paper_value=0.0),
    # -- Figure 6: un-tuned PI vs PI2 under varying intensity --------------
    Claim("fig06.pi_p_collapses_stage1", "Fig 6", "fig06",
          lambda run: _p_zero(run, "pi", 0), lo=0.02),
    Claim("fig06.pi_p_collapses_stage5", "Fig 6", "fig06",
          lambda run: _p_zero(run, "pi", 4), lo=0.02),
    Claim("fig06.pi2_signal_live_stage1", "Fig 6", "fig06",
          lambda run: _p_zero(run, "pi2", 0) - _p_zero(run, "pi", 0), hi=0.0),
    Claim("fig06.pi2_signal_live_stage5", "Fig 6", "fig06",
          lambda run: _p_zero(run, "pi2", 4) - _p_zero(run, "pi", 4), hi=0.0),
    Claim("fig06.pi2_closer_to_target_stage5", "Fig 6", "fig06",
          _fig06_target_gap, hi=0.5),
    Claim("fig06.pi_on_target_stage3", "Fig 6", "fig06",
          _v("q mean [ms]", "pi", _STAGES[2]), lo=15.0, hi=25.0, paper_value=20.0),
    Claim("fig06.pi2_on_target_stage3", "Fig 6", "fig06",
          _v("q mean [ms]", "pi2", _STAGES[2]), lo=15.0, hi=25.0, paper_value=20.0),
    # -- Figure 7: reno-PIE / reno-PI2 / scal-PI margins (analytic) --------
    Claim("fig07.pi2_margin_positive", "Fig 7", "fig07",
          lambda run: _min(run.column("GM pi2 [dB]")), lo=0.0),
    Claim("fig07.scal_margin_positive", "Fig 7", "fig07",
          lambda run: _min(run.column("GM scal [dB]")), lo=0.0),
    Claim("fig07.pi2_margin_flat", "Fig 7", "fig07",
          lambda run: (_max(run.column("GM pi2 [dB]")[:5])
                       - _min(run.column("GM pi2 [dB]")[:5])),
          hi=6.0),
    Claim("fig07.pi2_margin_high_load", "Fig 7", "fig07",
          _v("GM pi2 [dB]", 0.8), lo=10.0, paper_value=10.0),
    Claim("fig07.scal_tracks_pi2", "Fig 7", "fig07", _fig07_scal_gap, hi=6.0),
    Claim("fig07.pi2_phase_margin_positive", "Fig 7", "fig07",
          lambda run: _min(run.column("PM pi2 [deg]")), lo=0.0),
    Claim("fig07.pi2_phase_margin_high_load", "Fig 7", "fig07",
          _v("PM pi2 [deg]", 0.6), lo=45.0),
    # -- Figure 11: three traffic loads -------------------------------------
    Claim("fig11ab.delay_bounded", "Fig 11a/b", "fig11",
          lambda run: _max(run.value("q mean [ms]", load, aqm)
                           for load in _TCP_LOADS for aqm in ("pie", "pi2")),
          hi=45.0, paper_value=20.0),
    Claim("fig11ab.utilization", "Fig 11a/b", "fig11",
          lambda run: _fig11_util(run, _TCP_LOADS), lo=0.85),
    Claim("fig11a.pie_near_target", "Fig 11a", "fig11",
          _v("q mean [ms]", "5 TCP", "pie"), lo=8.0, hi=32.0, paper_value=20.0),
    Claim("fig11a.pi2_near_target", "Fig 11a", "fig11",
          _v("q mean [ms]", "5 TCP", "pi2"), lo=8.0, hi=32.0, paper_value=20.0),
    Claim("fig11ab.startup_overshoot", "Fig 11a/b", "fig11", _fig11_startup, hi=1.25),
    Claim("fig11c.pie_bounded", "Fig 11c", "fig11",
          _v("q mean [ms]", _UDP_LOAD, "pie"), hi=60.0, paper_value=20.0),
    # PI2's 25 % Classic cap binds under 12 Mb/s of unresponsive UDP, so
    # the queue settles above target (§5's overload strategy).  The
    # lower bound fails if PI2 ever falls back to its 20 ms target.
    Claim("fig11c.pi2_overload_equilibrium", "Fig 11c", "fig11",
          _v("q mean [ms]", _UDP_LOAD, "pi2"), lo=30.0, hi=60.0, paper_value=20.0,
          status=DIVERGENCE),
    Claim("fig11c.utilization", "Fig 11c", "fig11",
          lambda run: _fig11_util(run, (_UDP_LOAD,)), lo=0.95),
    # -- Figure 12: capacity 100:20:100 Mb/s --------------------------------
    Claim("fig12.drop_peak_ratio", "Fig 12", "fig12",
          lambda run: run.value("peak@drop [ms]", "pi2") / run.value("peak@drop [ms]", "pie"),
          hi=1.1, paper_value=250 / 510, status=PARTIAL),
    Claim("fig12.low_stage_mean", "Fig 12", "fig12",
          lambda run: _max(run.column("mean@20M [ms]")), hi=60.0, paper_value=20.0),
    Claim("fig12.final_stage_mean", "Fig 12", "fig12", _fig12_final_mean,
          hi=40.0, paper_value=20.0),
    Claim("fig12.pi2_rise_peak", "Fig 12", "fig12",
          _v("peak@rise [ms]", "pi2"), hi=80.0),
    # -- Figure 13: varying intensity at 10 Mb/s ----------------------------
    Claim("fig13.load_step_overshoot", "Fig 13", "fig13", _fig13_overshoot, hi=1.2),
    Claim("fig13.stage1_peak", "Fig 13", "fig13",
          lambda run: _max(run.value("q peak [ms]", aqm, _STAGES[0])
                           for aqm in ("pie", "pi2")),
          hi=300.0),
    Claim("fig13.stage_peaks", "Fig 13", "fig13",
          lambda run: _max(run.value("q peak [ms]", aqm, s)
                           for aqm in ("pie", "pi2") for s in _STAGES[1:]),
          hi=150.0),
    # -- Figure 14: delay CDFs at 5 ms and 20 ms targets --------------------
    Claim("fig14a.pi2_tracks_pie", "Fig 14a", "fig14", _fig14_tracks_pie, hi=0.0),
    Claim("fig14a.target_moves_median", "Fig 14a", "fig14", _fig14_target_moves, lo=0.0),
    # PI² Parameters (arXiv 2107.01003) sets the target as the knob that
    # trades queuing delay for utilization: quartering it should cut the
    # median delay of a TCP-only load by a comparable factor.
    Claim("fig14a.pi2_target_sensitivity", "Fig 14a; PI2 Parameters (2107.01003)",
          "fig14",
          lambda run: (_fig14_median(run, "20 ms", "20 TCP", "pi2")
                       / _fig14_median(run, "5 ms", "20 TCP", "pi2")),
          lo=2.5, hi=6.0, paper_value=4.0),
    Claim("fig14b.pie_bounded", "Fig 14b", "fig14",
          lambda run: _max(_fig14_median(run, t, _UDP_LOAD, "pie")
                           for t in ("5 ms", "20 ms")),
          hi=60.0),
    # The same 25 % cap as Fig 11c: under UDP overload PI2's median sits
    # at the overload equilibrium, above either target.
    Claim("fig14b.pi2_overload_5ms", "Fig 14b", "fig14",
          lambda run: _fig14_median(run, "5 ms", _UDP_LOAD, "pi2"),
          lo=15.0, hi=60.0, paper_value=5.0, status=DIVERGENCE),
    Claim("fig14b.pi2_overload_20ms", "Fig 14b", "fig14",
          lambda run: _fig14_median(run, "20 ms", _UDP_LOAD, "pi2"),
          lo=30.0, hi=60.0, paper_value=20.0, status=DIVERGENCE),
    # -- Figures 15-18: the coexistence grid --------------------------------
    Claim("fig15.pie_starves_cubic", "Fig 15", "fig15_18",
          lambda run: _balance_gm(run, "pie"), hi=0.25, paper_value=0.1),
    Claim("fig15.pi2_balance", "Fig 15", "fig15_18",
          lambda run: _balance_gm(run, "pi2"), lo=0.4, hi=2.5, paper_value=1.0,
          status=PARTIAL),
    Claim("fig15.pi2_unbalanced_cells", "Fig 15", "fig15_18", _pi2_outliers,
          hi=3, paper_value=0),
    Claim("fig15.control_pair_pie", "Fig 15", "fig15_18",
          lambda run: _balance_gm(run, "pie", "ecn-cubic"), lo=0.3, hi=3.0,
          paper_value=1.0),
    Claim("fig15.control_pair_pi2", "Fig 15", "fig15_18",
          lambda run: _balance_gm(run, "pi2", "ecn-cubic"), lo=0.3, hi=3.0,
          paper_value=1.0),
    Claim("fig16.pie_delay", "Fig 16", "fig15_18",
          lambda run: _grid_delay(run, "pie"), lo=0.005, hi=0.045, paper_value=0.020),
    Claim("fig16.pi2_delay", "Fig 16", "fig15_18",
          lambda run: _grid_delay(run, "pi2"), lo=0.005, hi=0.045, paper_value=0.020),
    Claim("fig17.coupling_k2", "Fig 17; eq (14)", "fig15_18", _coupling_error,
          hi=1e-6, paper_value=0.0),
    Claim("fig17.scalable_above_classic", "Fig 17", "fig15_18",
          _classic_minus_scalable, hi=0.0),
    Claim("fig18.pie_utilization", "Fig 18", "fig15_18",
          lambda run: float(np.mean(_grid_utils(run, "pie"))), lo=0.88, paper_value=0.9),
    Claim("fig18.pi2_utilization", "Fig 18", "fig15_18",
          lambda run: float(np.mean(_grid_utils(run, "pi2"))), lo=0.88, paper_value=0.9),
    Claim("fig18.pie_min_utilization", "Fig 18", "fig15_18",
          lambda run: _min(_grid_utils(run, "pie")), lo=0.70),
    Claim("fig18.pi2_min_utilization", "Fig 18", "fig15_18",
          lambda run: _min(_grid_utils(run, "pi2")), lo=0.70),
    # -- Figures 19-20: flow-count mixes ------------------------------------
    Claim("fig19.pie_imbalance", "Fig 19", "fig19_20",
          lambda run: geometric_mean(_mix_ratios(run, "pie")), lo=4.0, paper_value=10.0),
    Claim("fig19.pi2_balance", "Fig 19", "fig19_20",
          lambda run: geometric_mean(_mix_ratios(run, "pi2")), lo=0.4, hi=2.5,
          paper_value=1.0),
    Claim("fig19.pi2_every_mix_min", "Fig 19", "fig19_20",
          lambda run: _min(_mix_ratios(run, "pi2")), lo=0.25, paper_value=1.0),
    Claim("fig19.pi2_every_mix_max", "Fig 19", "fig19_20",
          lambda run: _max(_mix_ratios(run, "pi2")), hi=4.0, paper_value=1.0),
    Claim("fig19.pi2_beats_pie_every_mix", "Fig 19", "fig19_20", _mix_gap, hi=0.0),
    Claim("fig20.pi2_dctcp_fair", "Fig 20", "fig19_20",
          lambda run: _norm_rate(run, "pi2", "dctcp"), lo=0.4, hi=2.2, paper_value=1.0),
    Claim("fig20.pi2_cubic_fair", "Fig 20", "fig19_20",
          lambda run: _norm_rate(run, "pi2", "cubic"), lo=0.4, hi=2.2, paper_value=1.0),
    Claim("fig20.pie_dctcp_above_fair", "Fig 20", "fig19_20",
          lambda run: _norm_rate(run, "pie", "dctcp"), lo=1.5),
    Claim("fig20.pie_cubic_below_fair", "Fig 20", "fig19_20",
          lambda run: _norm_rate(run, "pie", "cubic"), hi=0.5),
    # -- Appendix A: steady-state windows vs equations (5)-(14) -------------
    Claim("appA.ecn_cubic_eq7", "App. A eq (7)", "appA",
          _law_ratio("ecn-cubic", 0.01), lo=0.8, hi=1.2, paper_value=1.0),
    Claim("appA.dctcp_eq11_p02", "App. A eq (11)", "appA",
          _law_ratio("dctcp", 0.02), lo=0.8, hi=1.2, paper_value=1.0),
    Claim("appA.dctcp_eq11_p05", "App. A eq (11)", "appA",
          _law_ratio("dctcp", 0.05), lo=0.8, hi=1.2, paper_value=1.0),
    Claim("appA.dctcp_eq11_p10", "App. A eq (11)", "appA",
          _law_ratio("dctcp", 0.1), lo=0.8, hi=1.2, paper_value=1.0),
    Claim("appA.reno_eq5", "App. A eq (5)", "appA",
          _law_ratio("reno", 0.01), lo=0.55, hi=1.15, paper_value=1.0),
    Claim("appA.cubic_eq7", "App. A eq (7)", "appA",
          _law_ratio("cubic", 0.01), lo=0.55, hi=1.15, paper_value=1.0),
    Claim("appA.coupling_eq14", "App. A eq (13)/(14)", "appA", _coupled_windows,
          lo=0.75, hi=1.25, paper_value=1.0),
    # -- Ablations and extensions -------------------------------------------
    Claim("abl_bare_pie.delay_gap", "§5 bare-PIE", "abl_bare_pie",
          _bare_pie_gap("q mean [ms]"), hi=10.0, paper_value=0.0),
    Claim("abl_bare_pie.util_gap", "§5 bare-PIE", "abl_bare_pie",
          _bare_pie_gap("util"), hi=0.05, paper_value=0.0),
    Claim("abl_dctcp_marking.prob_exponent", "App. A eq (11)", "abl_dctcp_marking",
          _exponent("probabilistic"), lo=0.75, hi=1.3, paper_value=1.0),
    Claim("abl_dctcp_marking.step_exponent", "App. A eq (12)", "abl_dctcp_marking",
          _exponent("step"), lo=1.3, paper_value=2.0, status=PARTIAL),
    Claim("abl_dctcp_marking.step_over_prob", "App. A eq (11)/(12)", "abl_dctcp_marking",
          lambda run: _exponent("step")(run) - _exponent("probabilistic")(run), lo=0.25,
          paper_value=1.0),
    Claim("abl_decision_modes.delay_ci_overlap", "§5", "abl_decision_modes",
          _ci_gap("delay [s]", "delay ±95%"), hi=0.0),
    Claim("abl_decision_modes.p_ci_overlap", "§5", "abl_decision_modes",
          _ci_gap("p", "p ±95%"), hi=0.0),
    Claim("abl_decision_modes.goodput_ci_overlap", "§5", "abl_decision_modes",
          _ci_gap("goodput [b/s]", "goodput ±95%"), hi=0.0),
    Claim("abl_decision_modes.delay_gap", "§5", "abl_decision_modes",
          _mode_gap("delay [s]"), hi=0.01, paper_value=0.0),
    Claim("abl_decision_modes.goodput_gap", "§5", "abl_decision_modes",
          _mode_gap("goodput [b/s]", relative=True), hi=0.05, paper_value=0.0),
    Claim("abl_k_factor.monotone", "App. A k", "abl_k_factor", _k_monotone, lo=0.0),
    Claim("abl_k_factor.k2_nearest_balance", "App. A k", "abl_k_factor", _k_nearest,
          hi=0.3),
    Claim("abl_k_factor.k2_ratio", "App. A k", "abl_k_factor",
          _v("Cubic/DCTCP ratio", 2.0), lo=0.3, hi=3.0, paper_value=1.0),
    Claim("abl_rtt_sensitivity.equal_rtt_balance", "App. A eq (14)",
          "abl_rtt_sensitivity", _rtt("20 ms"), lo=0.4, hi=2.5, paper_value=1.0),
    Claim("abl_rtt_sensitivity.short_rtt_flattened", "App. A eq (14)",
          "abl_rtt_sensitivity",
          lambda run: abs(_rtt("5 ms")(run) - _rtt("20 ms")(run)) / _rtt("20 ms")(run),
          hi=0.5),
    Claim("abl_rtt_sensitivity.long_rtt_loses", "App. A eq (14)", "abl_rtt_sensitivity",
          lambda run: _rtt("60 ms")(run) - _rtt("20 ms")(run), hi=0.0),
    Claim("abl_rtt_sensitivity.no_starvation_min", "App. A eq (14)",
          "abl_rtt_sensitivity",
          lambda run: _min(run.column("DCTCP/Cubic ratio")), lo=0.3),
    Claim("abl_rtt_sensitivity.no_starvation_max", "App. A eq (14)",
          "abl_rtt_sensitivity",
          lambda run: _max(run.column("DCTCP/Cubic ratio")), hi=3.5),
    Claim("abl_sack.goodput_gain", "Fig 15 (SACK)", "abl_sack",
          lambda run: _sack_gain(run, per_law=False), lo=0.0),
    Claim("abl_sack.closer_to_law", "App. A eq (5)", "abl_sack",
          lambda run: _sack_gain(run, per_law=True), lo=0.0),
    Claim("abl_sack.balance_toward_one", "Fig 15 (SACK)", "abl_sack", _sack_balance,
          hi=0.05),
    Claim("abl_sack.balance_with_sack", "Fig 15 (SACK)", "abl_sack",
          _v("sack", "Cubic/DCTCP ratio"), lo=0.5, hi=2.0, paper_value=1.0),
    Claim("abl_square_vs_tune.pi_loses_utilization", "§4/§5 design", "abl_square_vs_tune",
          lambda run: run.value("util", "pi") - run.value("util", "pi2"), hi=0.0),
    Claim("abl_square_vs_tune.tune_utilization", "§4/§5 design", "abl_square_vs_tune",
          _v("util", "pie-tune"), lo=0.9),
    Claim("abl_square_vs_tune.square_utilization", "§4/§5 design", "abl_square_vs_tune",
          _v("util", "pi2"), lo=0.9),
    Claim("abl_square_vs_tune.pi_collapses_most", "§4/§5 design", "abl_square_vs_tune",
          lambda run: run.value("p=0 frac", "pi2") - run.value("p=0 frac", "pi"), hi=0.0),
    Claim("related_work.same_probability", "§3/§4", "related_work",
          lambda run: _ratio_of_extremes(run.column("p mean")), hi=2.0, paper_value=1.0),
    Claim("related_work.delay_bounded", "§3/§4", "related_work",
          lambda run: _max(run.column("q mean [ms]")), hi=45.0, paper_value=20.0),
    Claim("related_work.utilization", "§3/§4", "related_work",
          lambda run: _min(run.column("util")), lo=0.9),
    Claim("related_work.pi2_vs_table", "§3/§4", "related_work",
          lambda run: (run.value("q mean [ms]", "pi2-square")
                       - run.value("q mean [ms]", "pie-table")),
          hi=2.0),
    Claim("related_work.pi2_vs_sqrt_tuning", "§3/§4", "related_work",
          lambda run: (run.value("q mean [ms]", "pi2-square")
                       - run.value("q mean [ms]", "adaptive-sqrt")),
          hi=2.0),
    # -- §3: the lineage RED -> PI -> PIE -> PI2 ------------------------------
    Claim("lineage.red_delay_grows", "§3", "lineage",
          lambda run: _lineage_mean(run, "red", 24) / _lineage_mean(run, "red", 4),
          lo=1.3),
    Claim("lineage.pie_holds_target", "§3", "lineage", _load_shift("pie"), hi=12.0,
          paper_value=0.0),
    Claim("lineage.pi2_holds_target", "§3", "lineage", _load_shift("pi2"), hi=10.0,
          paper_value=0.0),
    Claim("lineage.measured_like_exact", "§3", "lineage",
          lambda run: abs(_lineage_mean(run, "pie", 8, "measured")
                          - _lineage_mean(run, "pie", 8)),
          hi=12.0, paper_value=0.0),
    Claim("lineage.measured_near_target", "§3", "lineage",
          lambda run: _lineage_mean(run, "pie", 8, "measured"),
          lo=5.0, hi=35.0, paper_value=20.0),
    Claim("dualq.single_queue_shared_delay", "§7", "dualq",
          lambda run: abs(run.value("L (dctcp) delay [ms]", "single-queue")
                          - run.value("C (cubic) delay [ms]", "single-queue")),
          hi=10.0),
    Claim("dualq.l4s_isolated", "§7", "dualq",
          lambda run: (run.value("L (dctcp) delay [ms]", "dualq")
                       - run.value("C (cubic) delay [ms]", "dualq") / 2),
          hi=0.0),
    Claim("dualq.l4s_delay", "§7", "dualq",
          _v("L (dctcp) delay [ms]", "dualq"), hi=5.0),
    Claim("dualq.balance_min", "§7", "dualq",
          lambda run: _min(run.column("Cubic/DCTCP ratio")), lo=0.25, paper_value=1.0),
    Claim("dualq.balance_max", "§7", "dualq",
          lambda run: _max(run.column("Cubic/DCTCP ratio")), hi=4.0, paper_value=1.0),
    Claim("dualq.utilization", "§7", "dualq",
          lambda run: _min(run.column("goodput/cap")), lo=0.85),
    Claim("short_fct.flows_done", "§6", "short_fct",
          lambda run: _min(run.column("flows done")), lo=100),
    Claim("short_fct.light_parity", "§6", "short_fct", _fct_parity("light"),
          hi=2.0, paper_value=1.0),
    Claim("short_fct.heavy_parity", "§6", "short_fct", _fct_parity("heavy"),
          hi=2.0, paper_value=1.0),
)
