"""Benchmark harness: events/sec, figure wall-clock, speedup, cache.

Each benchmark answers one question:

* :func:`bench_engine_events` — how fast is the bare event loop?
  (schedule/fire churn with trivial callbacks; pure engine overhead)
* :func:`bench_cancel_churn` — does lazy cancellation stay cheap under
  timer re-arming, i.e. does heap compaction do its job?
* :func:`bench_experiment` — how many *simulation* events per second
  does a realistic scenario sustain, TCP + AQM + recorders included?
* :func:`bench_link_batching` — what does link-layer event batching buy
  on a grid workload?  Runs the same cells with ``link_batching`` off
  and on, reports logical events/sec both ways plus the speedup, and
  asserts bit-exact digest parity between the two modes.
* :func:`bench_shared_cache` — does the cross-process single-flight
  cache collapse N workers' repeated-figure requests to one simulation
  per unique cell (``single_flight_ok``)?
* :func:`bench_grid` — what does a paper grid (Figures 15–18 shaped)
  cost wall-clock: serial, parallel (``jobs``), cold cache, warm cache?
* :func:`bench_tracing` — is the observability layer really free when
  off?  Interleaved A/A timing of the untraced path bounds the
  tracing-off overhead (``tracing_overhead_ok`` gates it at ≤ 1 %),
  and a fully traced run must reproduce the untraced digest bit-exact
  (``matches_untraced``).

:func:`run_benchmarks` bundles them into one JSON-able payload and
:func:`write_bench_json` emits ``BENCH_<date>.json``, the artifact CI
uploads and ``docs/PERFORMANCE.md`` explains how to read.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.cache import ResultCache
from repro.harness.factories import coupled_factory, pi2_factory
from repro.harness.scenarios import light_tcp
from repro.harness.sweep import run_coexistence_grid
from repro.sim.engine import Simulator

__all__ = [
    "BenchRecord",
    "bench_engine_events",
    "bench_cancel_churn",
    "bench_experiment",
    "bench_link_batching",
    "bench_shared_cache",
    "bench_grid",
    "bench_figure_resume",
    "bench_supervised",
    "bench_tracing",
    "run_benchmarks",
    "write_bench_json",
    "format_bench_table",
]

#: Tiny Figures-15–18-shaped grid used by the quick/smoke benchmarks.
QUICK_GRID = {"links_mbps": (4, 12), "rtts_ms": (5, 10), "duration": 5.0, "warmup": 2.0}
#: Fuller grid for `--full` runs on real hardware.
FULL_GRID = {
    "links_mbps": (4, 12, 40),
    "rtts_ms": (5, 10, 20),
    "duration": 15.0,
    "warmup": 6.0,
}
#: Grid cells for the batching A/B benchmark: paper cells with a
#: meaningful bandwidth-delay product, where per-packet link and pipe
#: events dominate the heap and batching has something to absorb.
BATCHING_GRID = {
    "links_mbps": (40, 120),
    "rtts_ms": (20, 50),
    "duration": 5.0,
    "warmup": 2.0,
}


@dataclass
class BenchRecord:
    """One benchmark's outcome: wall-clock plus whatever it counted."""

    name: str
    wall_seconds: float
    events: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
        }
        if self.events:
            payload["events"] = self.events
            payload["events_per_sec"] = self.events_per_sec
        payload.update(self.extra)
        return payload


def bench_engine_events(n_events: int = 200_000) -> BenchRecord:
    """Raw event-loop throughput: one self-rescheduling timer chain."""
    sim = Simulator()
    remaining = [n_events]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    start = time.perf_counter()
    sim.run(until=n_events)  # far beyond the last event's timestamp
    wall = time.perf_counter() - start
    return BenchRecord("engine_events", wall, events=sim.events_processed)


def bench_cancel_churn(n_events: int = 100_000) -> BenchRecord:
    """Timer re-arm churn: every firing cancels a pending event and arms
    two more, the way TCP retransmission timers behave under ACK clocking.
    Exercises lazy deletion + threshold compaction; the compaction count
    and peak heap size come back in ``extra``."""
    sim = Simulator()
    state = {"fired": 0, "pending": None, "peak_heap": 0}

    def tick():
        state["fired"] += 1
        if state["pending"] is not None:
            state["pending"].cancel()
        if state["fired"] < n_events:
            # The event armed here is immediately superseded on the next
            # tick — exactly the re-arm pattern that used to accumulate.
            state["pending"] = sim.schedule(10.0, tick)
            sim.schedule(0.001, tick)
        state["peak_heap"] = max(state["peak_heap"], sim.pending_events)

    sim.schedule(0.001, tick)
    start = time.perf_counter()
    sim.run(until=n_events)
    wall = time.perf_counter() - start
    return BenchRecord(
        "cancel_churn",
        wall,
        events=sim.events_processed,
        extra={
            "compactions": sim.compactions,
            "peak_heap": state["peak_heap"],
            "cancelled_pending_final": sim.cancelled_pending,
        },
    )


def bench_experiment(duration: float = 10.0, seed: int = 1) -> BenchRecord:
    """End-to-end simulation throughput on the paper's light-TCP scenario."""
    from repro.harness.experiment import run_experiment

    exp = light_tcp(pi2_factory(), duration=duration, seed=seed)
    start = time.perf_counter()
    result = run_experiment(exp)
    wall = time.perf_counter() - start
    return BenchRecord(
        "experiment_light_tcp",
        wall,
        events=result.bed.sim.events_processed,
        extra={"sim_seconds": duration, "sim_seconds_per_wall": duration / wall},
    )


def bench_link_batching(
    grid: Optional[dict] = None,
    seed: int = 1,
) -> BenchRecord:
    """A/B the link-layer event batcher on a high-BDP grid workload.

    Runs each grid cell twice — ``link_batching=False`` then ``True`` —
    and compares *logical* events/sec, where logical events are
    ``events_processed + events_batched``: batching absorbs dispatches,
    it does not remove work, so the logical count is identical in both
    modes and the speedup is purely wall-clock.  Digest equality across
    the two runs is checked per cell; any mismatch is flagged in
    ``extra["matches_unbatched"]`` (and would fail the perf smoke test).
    """
    from dataclasses import replace

    from repro.harness.experiment import run_experiment
    from repro.harness.scenarios import coexistence_pair

    params = dict(grid or BATCHING_GRID)
    cells = [
        (mbps, rtt_ms)
        for mbps in params["links_mbps"]
        for rtt_ms in params["rtts_ms"]
    ]

    walls = {False: 0.0, True: 0.0}
    processed = {False: 0, True: 0}
    absorbed = {False: 0, True: 0}
    breaks = 0
    matches = True
    for mbps, rtt_ms in cells:
        base = coexistence_pair(
            pi2_factory(),
            capacity_bps=mbps * 1_000_000,
            rtt=rtt_ms / 1_000.0,
            duration=params["duration"],
            warmup=params["warmup"],
            seed=seed,
        )
        digests = {}
        for batching in (False, True):
            exp = replace(base, link_batching=batching)
            start = time.perf_counter()
            result = run_experiment(exp)
            walls[batching] += time.perf_counter() - start
            sim = result.bed.sim
            processed[batching] += sim.events_processed
            absorbed[batching] += sim.events_batched
            if batching:
                breaks += sim.batch_breaks
            digests[batching] = result.digest()
        matches = matches and digests[False] == digests[True]

    logical_off = processed[False] + absorbed[False]
    logical_on = processed[True] + absorbed[True]
    eps_off = logical_off / walls[False] if walls[False] > 0 else 0.0
    eps_on = logical_on / walls[True] if walls[True] > 0 else 0.0
    return BenchRecord(
        "link_batching",
        walls[True],
        events=logical_on,
        extra={
            "cells": len(cells),
            "wall_seconds_unbatched": walls[False],
            "events_per_sec_unbatched": eps_off,
            "speedup_vs_unbatched": eps_on / eps_off if eps_off > 0 else 0.0,
            "events_batched": absorbed[True],
            "batch_breaks": breaks,
            "matches_unbatched": matches,
        },
    )


def _shared_cache_worker(payload):
    """Pool body for :func:`bench_shared_cache`: fetch every cell once."""
    from repro.harness.cache import SharedResultCache
    from repro.harness.experiment import run_experiment
    from repro.harness.frozen import freeze_result

    root, cells = payload
    cache = SharedResultCache(root)
    digests = []
    for key, experiment in cells:
        result = cache.fetch_or_compute(
            key, lambda experiment=experiment: freeze_result(
                run_experiment(experiment)
            )
        )
        digests.append(result.digest_hex())
    return digests


def bench_shared_cache(
    jobs: Optional[int] = None,
    seed: int = 1,
) -> BenchRecord:
    """Single-flight dedup under a parallel repeated-figure workload.

    ``jobs`` workers (None/0 = one per CPU, capped at 4) each request the *same* set of unique
    cells through one :class:`~repro.harness.cache.SharedResultCache` —
    the repeated-figure shape, N processes asking for one grid.  The
    per-key file locks must collapse the ``workers x cells`` requests to
    exactly ``cells`` simulations (``compute_count``), everyone else
    waiting and sharing; ``single_flight_ok`` gates that, and digest
    equality across workers gates that shared results are the same
    object the computing worker produced.
    """
    import multiprocessing

    from repro.harness.cache import SharedResultCache, experiment_cache_key
    from repro.harness.parallel import resolve_jobs
    from repro.harness.scenarios import coexistence_pair

    workers = min(resolve_jobs(jobs or 0), 4)
    cells = []
    for rtt_ms in (5, 10):
        experiment = coexistence_pair(
            pi2_factory(),
            capacity_bps=4 * 1_000_000,
            rtt=rtt_ms / 1_000.0,
            duration=3.0,
            warmup=1.0,
            seed=seed,
        )
        cells.append((experiment_cache_key(experiment), experiment))

    with tempfile.TemporaryDirectory(prefix="repro-bench-shared-") as root:
        payload = (root, cells)
        start = time.perf_counter()
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=workers) as pool:
                digest_lists = pool.map(
                    _shared_cache_worker, [payload] * workers
                )
        else:
            digest_lists = [_shared_cache_worker(payload)]
        wall = time.perf_counter() - start
        counts = SharedResultCache(root).event_counts()

    digests_equal = len({tuple(d) for d in digest_lists}) == 1
    compute_count = counts["compute"]
    return BenchRecord(
        "shared_cache",
        wall,
        extra={
            "workers": workers,
            "unique_cells": len(cells),
            "requests": workers * len(cells),
            "compute_count": compute_count,
            "wait_count": counts["wait"],
            "dedup_saved_runs": workers * len(cells) - compute_count,
            "single_flight_ok": (
                compute_count == len(cells) and digests_equal
            ),
        },
    )


def bench_grid(
    jobs: Optional[int] = None,
    grid: Optional[dict] = None,
    seed: int = 1,
) -> List[BenchRecord]:
    """Wall-clock a Figures-15–18-shaped grid four ways.

    Serial, parallel (``jobs``; 0/None = one worker per CPU), cold cache
    and warm cache — the speedup and cache-hit numbers land in ``extra``.
    The determinism cross-check (serial digests == parallel digests) is
    performed here too, so every benchmark run doubles as a regression
    test of the parallel executor.
    """
    params = dict(grid or QUICK_GRID)
    records: List[BenchRecord] = []

    start = time.perf_counter()
    serial = run_coexistence_grid(coupled_factory(), seed=seed, **params)
    serial_wall = time.perf_counter() - start
    records.append(
        BenchRecord("grid_serial", serial_wall, extra={"cells": len(serial)})
    )

    start = time.perf_counter()
    parallel = run_coexistence_grid(
        coupled_factory(), seed=seed, jobs=jobs or 0, **params
    )
    parallel_wall = time.perf_counter() - start
    digests_equal = all(
        a.result.digest() == b.result.digest() for a, b in zip(serial, parallel)
    )
    records.append(
        BenchRecord(
            "grid_parallel",
            parallel_wall,
            extra={
                "jobs": jobs or (os.cpu_count() or 1),
                "speedup_vs_serial": serial_wall / parallel_wall
                if parallel_wall > 0
                else 0.0,
                "matches_serial": digests_equal,
            },
        )
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cache = ResultCache(cache_dir)
        start = time.perf_counter()
        cold = run_coexistence_grid(
            coupled_factory(), seed=seed, cache=cache, **params
        )
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_coexistence_grid(
            coupled_factory(), seed=seed, cache=cache, **params
        )
        warm_wall = time.perf_counter() - start
        cached_equal = all(
            a.result.digest() == b.result.digest() for a, b in zip(cold, warm)
        )
        records.append(
            BenchRecord(
                "grid_cache_cold", cold_wall, extra={"stores": cache.stats.stores}
            )
        )
        records.append(
            BenchRecord(
                "grid_cache_warm",
                warm_wall,
                extra={
                    "hits": cache.stats.hits,
                    "speedup_vs_cold": cold_wall / warm_wall if warm_wall > 0 else 0.0,
                    "matches_cold": cached_equal,
                },
            )
        )
    return records


def bench_supervised(
    jobs: Optional[int] = None,
    grid: Optional[dict] = None,
    seed: int = 1,
) -> BenchRecord:
    """Cost and correctness of supervised, journaled, resumable sweeps.

    Runs the quick grid four ways — plain serial (the reference digests),
    supervised without a journal, supervised with the fsync'd journal,
    and a resume that replays the journal — and reports:

    * ``journal_overhead_pct`` — wall-clock cost of journaling relative
      to the same supervised run without it.  Gated by
      ``journal_overhead_ok`` (≤ 5 %, with a 0.5 s absolute-floor grace
      so the quick grid's tiny wall times don't produce noise failures).
    * ``matches_serial`` / ``matches_resume`` — bit-exact digest parity
      of the journaled run and of the resumed (fully replayed) run
      against the serial reference.  Either being False fails
      ``repro bench`` exactly like the other determinism gates.
    """
    from repro.harness.supervisor import SupervisorConfig

    params = dict(grid or QUICK_GRID)
    # Every run but the reference is supervised, with one worker per CPU
    # unless ``jobs`` says otherwise, so the journal gate compares
    # supervised runs with and without the journal.
    supervised = dict(jobs=jobs or 0, supervisor=SupervisorConfig(), **params)

    start = time.perf_counter()
    serial = run_coexistence_grid(coupled_factory(), seed=seed, **params)
    serial_wall = time.perf_counter() - start
    reference = [cell.result.digest() for cell in serial]

    start = time.perf_counter()
    bare = run_coexistence_grid(coupled_factory(), seed=seed, **supervised)
    bare_wall = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        journal_path = os.path.join(tmp, "grid.journal")
        start = time.perf_counter()
        journaled = run_coexistence_grid(
            coupled_factory(), seed=seed, journal=journal_path, **supervised
        )
        journal_wall = time.perf_counter() - start
        journal_bytes = os.path.getsize(journal_path)

        start = time.perf_counter()
        resumed = run_coexistence_grid(
            coupled_factory(), seed=seed, journal=journal_path, resume=True,
            **supervised
        )
        resume_wall = time.perf_counter() - start

    matches_serial = [c.result.digest() for c in journaled] == reference
    matches_resume = [c.result.digest() for c in resumed] == reference
    overhead = journal_wall - bare_wall
    overhead_pct = (overhead / bare_wall * 100.0) if bare_wall > 0 else 0.0
    overhead_ok = overhead_pct <= 5.0 or overhead <= 0.5
    return BenchRecord(
        "grid_supervised",
        journal_wall,
        extra={
            "cells": len(serial),
            "wall_seconds_serial": serial_wall,
            "wall_seconds_no_journal": bare_wall,
            "wall_seconds_resume": resume_wall,
            "journal_overhead_pct": overhead_pct,
            "journal_overhead_ok": overhead_ok,
            "journal_bytes": journal_bytes,
            "replayed": resumed.recovery.replayed,
            "heartbeats": bare.recovery.heartbeats,
            "matches_serial": matches_serial,
            "matches_resume": matches_resume,
        },
    )


def bench_figure_resume(scale: float = 0.15, seed: int = 1) -> BenchRecord:
    """Cost and correctness of the journal-backed figure pipeline.

    Generates fig12 three ways — plain (the reference rows), journaled
    (every completed cell fsync'd), and resumed from that journal — and
    reports:

    * ``journal_overhead_pct`` — wall-clock cost of journaling the
      figure relative to the plain run, gated by ``journal_overhead_ok``
      (≤ 5 %, with the same 0.5 s absolute-floor grace as the grid
      journal gate).
    * ``matches_serial`` / ``matches_resume`` — the journaled run's rows
      and the resumed (fully replayed) run's rows must equal the plain
      run's rows bit-for-bit.  Either being False fails ``repro bench``
      like the other determinism gates.

    ``seed`` is unused by fig12 (its cells carry fixed seeds); it is
    accepted for signature symmetry with the other grid benchmarks.
    """
    from repro.harness.figures import generate_figure

    del seed  # fig12's experiments embed their own fixed seeds

    start = time.perf_counter()
    plain = generate_figure("fig12", scale=scale)
    plain_wall = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-figjournal-") as tmp:
        start = time.perf_counter()
        journaled = generate_figure("fig12", scale=scale, journal=tmp)
        journal_wall = time.perf_counter() - start
        journal_bytes = os.path.getsize(os.path.join(tmp, "fig12.journal"))

        start = time.perf_counter()
        resumed = generate_figure(
            "fig12", scale=scale, journal=tmp, resume=True
        )
        resume_wall = time.perf_counter() - start

    overhead = journal_wall - plain_wall
    overhead_pct = (overhead / plain_wall * 100.0) if plain_wall > 0 else 0.0
    overhead_ok = overhead_pct <= 5.0 or overhead <= 0.5
    return BenchRecord(
        "figure_resume",
        journal_wall,
        extra={
            "cells": journaled.report.journal_appends,
            "wall_seconds_plain": plain_wall,
            "wall_seconds_resume": resume_wall,
            "journal_overhead_pct": overhead_pct,
            "journal_overhead_ok": overhead_ok,
            "journal_bytes": journal_bytes,
            "replayed": resumed.report.replayed,
            "resume_executed": resumed.report.executed,
            "matches_serial": journaled.rows == plain.rows,
            "matches_resume": resumed.rows == plain.rows,
        },
    )


def bench_tracing(
    duration: float = 5.0,
    repeats: int = 3,
    seed: int = 1,
) -> BenchRecord:
    """Cost and correctness of the :mod:`repro.obs` tracing layer.

    Two claims are measured on the light-TCP scenario:

    * **Off is free.**  When no tracer is passed, the observability
      hooks reduce to one ``is None`` check per engine run plus a
      metrics snapshot at teardown — nothing per event.  There is no
      hook-free build to diff against, so the honest measurement is an
      interleaved A/A comparison: two best-of-``repeats`` series of the
      *identical* untraced run, whose relative gap bounds both the
      hooks' cost and the timer noise floor.  ``tracing_off_overhead_pct``
      reports that gap; ``tracing_overhead_ok`` gates it at ≤ 1 % (with
      a 50 ms absolute-floor grace, as quick runs finish in ~1 s and a
      single scheduler preemption exceeds 1 % of that).
    * **On observes, never perturbs.**  A fully traced run (all
      categories, JSONL to a temp file) must produce the bit-exact
      digest of the untraced run — ``matches_untraced``, failing
      ``repro bench`` like the other determinism gates.  The traced
      wall-clock and event/byte volume land in ``extra`` for scale.

    The traced run's ``telemetry`` snapshot rides along in ``extra`` so
    :func:`run_benchmarks` can lift it into the payload's top-level
    ``telemetry`` block.
    """
    from repro.harness.experiment import run_experiment
    from repro.obs.trace import JsonlTracer

    exp = light_tcp(pi2_factory(), duration=duration, seed=seed)

    best = {"a": float("inf"), "b": float("inf")}
    baseline = None
    for _ in range(repeats):
        for series in ("a", "b"):
            start = time.perf_counter()
            result = run_experiment(exp)
            wall = time.perf_counter() - start
            best[series] = min(best[series], wall)
            if baseline is None:
                baseline = result
    floor = min(best.values())
    gap = abs(best["a"] - best["b"])
    off_pct = gap / floor * 100.0 if floor > 0 else 0.0
    overhead_ok = off_pct <= 1.0 or gap <= 0.05

    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        trace_path = os.path.join(tmp, "bench-trace.jsonl")
        tracer = JsonlTracer(trace_path)
        start = time.perf_counter()
        traced = run_experiment(exp, tracer=tracer)
        traced_wall = time.perf_counter() - start
        tracer.close()
        trace_events = tracer.total_events
        trace_counts = dict(sorted(tracer.counts.items()))
        trace_bytes = os.path.getsize(trace_path)

    assert baseline is not None
    on_pct = (traced_wall - floor) / floor * 100.0 if floor > 0 else 0.0
    return BenchRecord(
        "tracing",
        floor,
        extra={
            "wall_seconds_traced": traced_wall,
            "tracing_off_overhead_pct": off_pct,
            "tracing_overhead_ok": overhead_ok,
            "tracing_on_overhead_pct": on_pct,
            "trace_events": trace_events,
            "trace_event_counts": trace_counts,
            "trace_bytes": trace_bytes,
            "matches_untraced": traced.digest() == baseline.digest(),
            "telemetry": traced.telemetry,
        },
    )


def run_benchmarks(
    quick: bool = True,
    jobs: Optional[int] = None,
    seed: int = 1,
) -> Dict[str, object]:
    """Run the full benchmark set; returns the JSON-able payload."""
    scale = 1 if quick else 4
    records = [
        bench_engine_events(50_000 * scale),
        bench_cancel_churn(25_000 * scale),
        bench_experiment(duration=5.0 * scale, seed=seed),
        bench_link_batching(
            grid=dict(
                BATCHING_GRID,
                duration=BATCHING_GRID["duration"] * (1 if quick else 2),
            ),
            seed=seed,
        ),
        bench_shared_cache(jobs=jobs, seed=seed),
    ]
    records.extend(
        bench_grid(jobs=jobs, grid=QUICK_GRID if quick else FULL_GRID, seed=seed)
    )
    records.append(
        bench_supervised(
            jobs=jobs, grid=QUICK_GRID if quick else FULL_GRID, seed=seed
        )
    )
    records.append(bench_figure_resume(scale=0.15 if quick else 0.4, seed=seed))
    tracing = bench_tracing(duration=5.0 * (1 if quick else 2), seed=seed)
    # The traced run's metrics snapshot becomes the payload's top-level
    # telemetry block; the per-benchmark record keeps only the numbers.
    telemetry = tracing.extra.pop("telemetry", None)
    records.append(tracing)
    return {
        "schema": 1,
        "date": datetime.date.today().isoformat(),
        "quick": quick,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "static_analysis": _static_analysis_summary(),
        "telemetry": telemetry,
        "benchmarks": [record.to_dict() for record in records],
    }


#: Full-tree ``repro check`` wall-clock budget.  Pre-commit and CI lean
#: on the analyzer being interactive-fast; the two-pass project analysis
#: (symbol table + call graph + TAINT/UNIT summaries) must stay well
#: inside this even as the tree grows.
STATIC_ANALYSIS_BUDGET_SECONDS = 10.0


def _static_analysis_summary() -> Dict[str, object]:
    """``repro check`` counts and wall-clock recorded alongside the perf
    numbers, so a BENCH file also certifies whether the measured tree was
    lint-clean and the analyzer stayed inside its time budget."""
    from repro.analysis.static import analyze_paths

    start = time.perf_counter()
    report = analyze_paths()
    seconds = time.perf_counter() - start
    return {
        "rules": len(report.rules),
        "files_checked": report.files_checked,
        "findings": len(report.findings),
        "suppressed": len(report.suppressed),
        "counts": dict(sorted(report.counts.items())),
        "seconds": seconds,
        "budget_seconds": STATIC_ANALYSIS_BUDGET_SECONDS,
        "within_budget": seconds <= STATIC_ANALYSIS_BUDGET_SECONDS,
    }


def write_bench_json(payload: Dict[str, object], output=None) -> Path:
    """Write the payload as ``BENCH_<date>.json`` (or to ``output``)."""
    if output is None:
        output = f"BENCH_{payload.get('date', datetime.date.today().isoformat())}.json"
    path = Path(output)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def format_bench_table(payload: Dict[str, object]) -> str:
    """Human-readable summary of a benchmark payload."""
    from repro.harness.sweep import format_table

    rows = []
    for bench in payload["benchmarks"]:
        note_parts = []
        for key in ("speedup_vs_serial", "speedup_vs_cold", "speedup_vs_unbatched"):
            if key in bench:
                note_parts.append(f"{key.split('_vs_')[-1]}×{bench[key]:.2f}")
        for key in ("matches_serial", "matches_cold", "matches_unbatched",
                    "matches_resume", "matches_untraced"):
            if key in bench and not bench[key]:
                note_parts.append("MISMATCH!")
        if "single_flight_ok" in bench:
            note_parts.append(
                f"dedup {bench['requests']}→{bench['compute_count']}"
                + ("" if bench["single_flight_ok"] else " SINGLE-FLIGHT!")
            )
        if "journal_overhead_pct" in bench:
            note_parts.append(f"journal+{bench['journal_overhead_pct']:.1f}%")
            if not bench.get("journal_overhead_ok", True):
                note_parts.append("OVERHEAD!")
        if "tracing_off_overhead_pct" in bench:
            note_parts.append(
                f"off+{bench['tracing_off_overhead_pct']:.2f}% "
                f"{bench['trace_events']} ev"
            )
            if not bench.get("tracing_overhead_ok", True):
                note_parts.append("OVERHEAD!")
        rows.append(
            (
                bench["name"],
                bench["wall_seconds"],
                bench.get("events_per_sec", ""),
                " ".join(note_parts),
            )
        )
    host = payload["host"]
    return format_table(
        ["benchmark", "wall [s]", "events/s", "notes"],
        rows,
        title=f"repro bench {payload['date']} "
        f"(python {host['python']}, {host['cpus']} cpu)",
    )
