"""One run of one workload, in a fresh process started by ``run.py``.

    python perf/e2e/child.py --workload NAME --seed N --seconds S \
        --workdir DIR --mode setup|run|profile

Set-up is interpreter start, ``import repro``, building the workload's
inputs and creating its directory; the child stamps ``time.monotonic()``
when it is done so the parent can time set-up from the moment it spawned
the process.  ``setup`` mode stops there.  ``run`` mode repeats the
workload's batch until the next batch would overrun ``--seconds`` (at
least once).  ``profile`` mode runs one plain batch, then one whose timed
part runs under cProfile.  The last line of standard output is one JSON
object describing the batches.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import layers
import workloads
from calibrate import REFERENCE_S, calibrate
from repro.harness import run_experiment
from repro.harness.cache import SharedResultCache
from repro.harness.figures import generate_figure
from repro.harness.journal import ResultJournal
from repro.obs.trace import JsonlTracer

# Telemetry keys summed into layer counters.  Read with ``.get``: a key a
# later commit removes (the engine's pool counters, say) is left out of
# the output instead of failing the run.
_TELEMETRY_SUMS = {
    "engine.events_processed": "sim.events_processed",
    "engine.events_batched": "sim.events_batched",
    "engine.batch_breaks": "sim.batch_breaks",
    "engine.compactions": "sim.compactions",
    "engine.cancelled_pending": "sim.cancelled_pending",
    "engine.pool_hits": "sim.pool_hits",
    "engine.pool_misses": "sim.pool_misses",
    "link.packets_sent": "net.link_packets",
    "link.batches": "net.link_batches",
    "link.interrupted_batches": "net.link_interrupted_batches",
    "aqm.decisions": "aqm.decisions",
    "aqm.dropped": "aqm.dropped",
    "aqm.marked": "aqm.marked",
}

_UNUSED_BY_SIMULATIONS = (
    "harness.cache_computes", "harness.journal_appends", "harness.journal_bytes",
    "obs.trace_events", "obs.trace_bytes",
)


class Timed:
    """Accumulates wall and CPU time of the timed regions of a batch.

    Each region is bracketed by :func:`calibrate.calibrate`, and its times
    are also added scaled to the reference host (``ref_wall``/``ref_cpu``)
    by the mean of the loop's times just before and just after it.  With
    a profiler, profiling is on exactly while a region is timed, so the
    benchmark's own checks stay out of the layer shares.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.wall = self.cpu = self.ref_wall = self.ref_cpu = 0.0
        self._loop = None

    def __enter__(self):
        if self._loop is None:
            self._loop = calibrate()
        if self.profiler is not None:
            self.profiler.enable()
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc_info):
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        if self.profiler is not None:
            self.profiler.disable()
        after = calibrate()
        scale = REFERENCE_S / ((self._loop + after) / 2)
        self._loop = after
        self.wall += wall
        self.cpu += cpu
        self.ref_wall += wall * scale
        self.ref_cpu += cpu * scale


def _cell_counters(result, counters: Counter) -> None:
    """Add one result's exact counters (live or frozen result)."""
    telemetry = getattr(result, "telemetry", None) or {}
    for key, name in _TELEMETRY_SUMS.items():
        value = telemetry.get(key)
        if value is not None:
            counters[name] += value
    longest = telemetry.get("link.longest_batch")
    if longest is not None:
        counters["net.link_longest_batch"] = max(
            counters["net.link_longest_batch"], longest)
    stats = result.queue_stats
    counters["net.queue_arrived"] += stats.arrived
    counters["net.queue_dequeued"] += stats.dequeued
    counters["net.queue_dropped"] += stats.dropped
    counters["net.queue_ce_marked"] += stats.ce_marked
    counters["metrics.sojourn_samples"] += int(
        result.sojourn_samples(from_warmup=False).size)


def _violations(label: str, result) -> list:
    """Seed-independent sanity checks on one cell's outputs."""
    stats = result.queue_stats
    out = []
    if stats.arrived != stats.enqueued + stats.dropped:
        out.append([label, f"arrived {stats.arrived} != enqueued "
                           f"{stats.enqueued} + dropped {stats.dropped}"])
    if stats.dequeued > stats.enqueued:
        out.append([label, f"dequeued {stats.dequeued} > enqueued {stats.enqueued}"])
    if result.total_goodput_bps() <= 0:
        out.append([label, "no goodput"])
    return out


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def simulation_batch(name: str, seed: int, workdir: Path, timed: Timed) -> dict:
    """Run the workload's cells once; time each cell, check its outputs."""
    traced = name in workloads.TRACED
    trace_path = workdir / "trace.jsonl"
    cells = workloads.SIMULATIONS[name](seed)
    batch = {"attempted": len(cells), "sim_s": 0.0, "digests": {}, "problems": []}
    # This path runs no cache, journal or pool, and traces only when asked.
    counters: Counter = Counter(dict.fromkeys(_UNUSED_BY_SIMULATIONS, 0))
    for label, experiment in cells:
        gc.collect()
        tracer = None
        try:
            with timed:
                tracer = JsonlTracer(trace_path) if traced else None
                result = run_experiment(experiment, tracer=tracer)
                if tracer is not None:
                    tracer.close()
        except Exception as exc:  # a failing cell is counted, not fatal
            batch["problems"].append([label, f"{type(exc).__name__}: {exc}"])
            if tracer is not None:
                tracer.close()
            continue
        batch["sim_s"] += experiment.duration
        batch["digests"][label] = result.digest_hex()
        batch["problems"].extend(_violations(label, result))
        _cell_counters(result, counters)
        for sender in result.bed.senders.values():
            counters["tcp.segments_sent"] += sender.segments_sent
            counters["tcp.retransmits"] += sender.retransmits
            counters["tcp.timeouts"] += sender.timeouts
        if tracer is not None:
            counters["obs.trace_events"] += tracer.total_events
            counters["obs.trace_bytes"] += trace_path.stat().st_size
            trace_path.unlink()
        del result
    counters["harness.cells"] = len(cells)
    batch["counters"] = dict(counters)
    batch["wall_s"], batch["cpu_s"] = timed.wall, timed.cpu
    batch["ref_wall_s"], batch["ref_cpu_s"] = timed.ref_wall, timed.ref_cpu
    batch["parent_cpu_s"] = timed.cpu
    batch["worker_cpu_s"] = 0.0
    return batch


def rows_sha256(rows) -> str:
    payload = json.dumps([list(row) for row in rows], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def figures_batch(workdir: Path, index: int, timed: Timed) -> dict:
    """Regenerate the figures with a fresh shared cache and journal."""
    root = workdir / f"figures-{index}"
    shutil.rmtree(root, ignore_errors=True)
    cache = SharedResultCache(root / "cache")
    journal = root / "journal"
    batch = {"attempted": len(workloads.FIGURES), "digests": {}, "problems": []}
    rows = {}
    workers = _children_cpu()
    for figure, scale in workloads.FIGURES:
        try:
            with timed:
                rows[figure] = generate_figure(
                    figure, scale=scale, jobs=workloads.FIGURE_JOBS,
                    cache=cache, journal=journal).rows
        except Exception as exc:  # a failing figure is counted, not fatal
            batch["problems"].append([figure, f"{type(exc).__name__}: {exc}"])
    batch["wall_s"] = timed.wall
    batch["parent_cpu_s"] = timed.cpu
    batch["worker_cpu_s"] = _children_cpu() - workers
    batch["cpu_s"] = batch["parent_cpu_s"] + batch["worker_cpu_s"]
    # Workers ran on the other CPU; scale them by this batch's mean factor.
    scale = timed.ref_wall / timed.wall if timed.wall else 1.0
    batch["ref_wall_s"] = timed.ref_wall
    batch["ref_cpu_s"] = timed.ref_cpu + batch["worker_cpu_s"] * scale

    # Untimed: replay every figure from its journal; rows must not change.
    replay = time.perf_counter()
    for figure, scale in workloads.FIGURES:
        if figure not in rows:
            continue
        again = generate_figure(figure, scale=scale, jobs=workloads.FIGURE_JOBS,
                                cache=cache, journal=journal, resume=True).rows
        if rows_sha256(again) != rows_sha256(rows[figure]):
            batch["problems"].append([figure, "resumed rows differ"])
    batch["replay_s"] = time.perf_counter() - replay

    counters: Counter = Counter({"obs.trace_events": 0, "obs.trace_bytes": 0})
    sim_s = 0.0
    for figure in rows:
        batch["digests"][figure] = rows_sha256(rows[figure])
        path = journal / f"{figure}.journal"
        records = ResultJournal(path).read().records
        counters["harness.journal_appends"] += len(records)
        counters["harness.journal_bytes"] += path.stat().st_size
        for record in records:
            counters["harness.cells"] += 1
            sim_s += record.result.duration
            _cell_counters(record.result, counters)
    counters["harness.cache_computes"] = cache.event_counts()["compute"]
    batch["counters"] = dict(counters)
    batch["sim_s"] = sim_s
    shutil.rmtree(root)
    return batch


def run_batch(name: str, seed: int, workdir: Path, index: int,
              profiler=None) -> dict:
    timed = Timed(profiler)
    if name == "figures_jobs2":
        batch = figures_batch(workdir, index, timed)
    else:
        batch = simulation_batch(name, seed, workdir, timed)
    if batch["wall_s"]:
        batch["parallel_efficiency"] = batch["cpu_s"] / (
            workloads.FIGURE_JOBS * batch["wall_s"])
    return batch


def profiled_batch(name: str, seed: int, workdir: Path, index: int) -> dict:
    """One batch whose timed part runs under cProfile, summed per layer.

    Forked workers (``figures_jobs2``) stop profiling at once: the
    profile covers this process only.
    """
    profiler = cProfile.Profile()
    os.register_at_fork(after_in_child=profiler.disable)
    batch = run_batch(name, seed, workdir, index, profiler)
    seconds, calls = layers.attribute(pstats.Stats(profiler).stats)
    batch["layer_seconds"] = seconds
    batch["layer_calls"] = calls
    return batch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "profile"), required=True)
    args = parser.parse_args(argv)

    if args.workload in workloads.SIMULATIONS:
        workloads.SIMULATIONS[args.workload](args.seed)  # timed as set-up
    args.workdir.mkdir(parents=True, exist_ok=True)
    out = {"ready": time.monotonic(), "batches": []}
    if args.mode != "setup":
        calibrate()  # the first loop in a process runs slow: warm it up
        batches = out["batches"]
        elapsed = []
        started = time.perf_counter()
        while True:
            begun = time.perf_counter()
            batches.append(run_batch(args.workload, args.seed, args.workdir,
                                     len(batches)))
            elapsed.append(time.perf_counter() - begun)
            if args.mode == "profile":
                batches.append(profiled_batch(args.workload, args.seed,
                                              args.workdir, len(batches)))
                break
            spent = time.perf_counter() - started
            if spent + statistics.median(elapsed) > args.seconds:
                break
        rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out["peak_rss_mb"] = rss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
