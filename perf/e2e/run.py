"""End-to-end benchmark of the paper's workloads, with per-layer attribution.

The whole suite -- every workload, repetitions interleaved round-robin,
then one profiled run per workload -- printed as a table and optionally
saved for ``compare.py``::

    python perf/e2e/run.py [--seed N] [--reps N] [--seconds S] [--out FILE]

One run of one workload, ending in one JSON line (the form
``BENCHMARK.json``'s command takes; ``--trace 1`` reports the per-layer
metrics from a profiled run instead of the end-to-end ones)::

    python perf/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh child processes (``child.py``): a few that only
set up, to time set-up, then one that measures.  Only one child runs at
a time.  Cell digests are checked against ``golden.json`` for the seeds
it holds, and against the run's own first batch for every seed; the
command exits non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from layers import ALL, LAYERS, shares

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden.json"
WORK = HERE / ".work"

#: Set-up samples per run (the measuring child is the last of them).
SETUP_SAMPLES = 7
#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 140.0

E2E_UNITS = {
    "setup_s": "s",
    "ref_wall_us_per_pkt": "us",
    "ref_cpu_us_per_pkt": "us",
    "wall_s": "s",
    "cpu_s": "s",
    "sim_s_per_s": "sim-s/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

#: Per-layer metrics that are exact: equal on every run of one seed.
COUNT_UNITS = {
    "sim.events_processed": "count",
    "sim.events_batched": "count",
    "sim.batched_frac": "ratio",
    "sim.batch_breaks": "count",
    "sim.compactions": "count",
    "sim.cancelled_pending": "count",
    "sim.pool_hits": "count",
    "sim.pool_misses": "count",
    "net.link_packets": "count",
    "net.link_batches": "count",
    "net.link_longest_batch": "count",
    "net.link_interrupted_batches": "count",
    "net.queue_arrived": "count",
    "net.queue_dequeued": "count",
    "net.queue_drop_frac": "ratio",
    "net.queue_ce_marked": "count",
    "aqm.decisions": "count",
    "aqm.dropped": "count",
    "aqm.marked": "count",
    "tcp.segments_sent": "count",
    "tcp.retransmit_frac": "ratio",
    "tcp.timeouts": "count",
    "metrics.sojourn_samples": "count",
    "harness.cells": "count",
    "harness.cache_computes": "count",
    "harness.journal_appends": "count",
    "harness.journal_bytes": "B",
    "obs.trace_events": "count",
    "obs.trace_bytes": "B",
}
COUNT_UNITS.update({f"{layer}.calls": "count" for layer in LAYERS})

#: Per-layer metrics that are measured times or shares.
MEASURED_UNITS = {
    "sim.ref_cpu_us_per_event": "us",
    "harness.parent_cpu_s": "s",
    "harness.worker_cpu_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.replay_s": "s",
    "profile.overhead_x": "x",
}
MEASURED_UNITS.update({f"{layer}.self_share": "ratio" for layer in ALL})

LAYER_UNITS = {**COUNT_UNITS, **MEASURED_UNITS}

_RATIOS = {
    "sim.batched_frac": ("sim.events_batched", "sim.events_processed"),
    "net.queue_drop_frac": ("net.queue_dropped", "net.queue_arrived"),
    "tcp.retransmit_frac": ("tcp.retransmits", "tcp.segments_sent"),
}


class BenchError(RuntimeError):
    """A run could not be completed (as opposed to a wrong output)."""


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


# -- child processes -----------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, mode: str, workdir: Path):
    """Run one child to completion; returns (raw set-up seconds, its JSON)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(workdir))
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--workdir", str(workdir), "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child ({mode}) exceeded "
                         f"{CHILD_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child ({mode}) exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - spawned, result


def run_once(workload: str, seed: int, seconds: float, profile: bool) -> dict:
    """One run: set-up samples, then one measuring child.

    Each set-up sample is scaled to the reference host by the reference
    loop this process times just before spawning it.  (A child's own
    first loop, right after its imports, runs slow and would not do.)
    """
    workdir = WORK / f"{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    calibrate()  # the first loop in a process runs slow: warm it up
    setups = []
    try:
        for index in range(SETUP_SAMPLES):
            mode = "setup" if index < SETUP_SAMPLES - 1 else (
                "profile" if profile else "run")
            loop = calibrate()
            setup, result = spawn(workload, seed, seconds, mode, workdir)
            setups.append(setup * REFERENCE_S / loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result["setup_s"] = statistics.median(setups)
    return result


# -- metrics ---------------------------------------------------------------
def end_to_end(run: dict) -> dict:
    """End-to-end metrics of one untraced run: medians over its batches."""
    batches = run["batches"]

    def median(value):
        return statistics.median(value(b) for b in batches)

    def per_packet(key):
        return median(lambda b: b[key] * 1e6 / b["counters"]["net.queue_dequeued"])

    return {
        "setup_s": run["setup_s"],
        "ref_wall_us_per_pkt": per_packet("ref_wall_s"),
        "ref_cpu_us_per_pkt": per_packet("ref_cpu_s"),
        "wall_s": median(lambda b: b["wall_s"]),
        "cpu_s": median(lambda b: b["cpu_s"]),
        "sim_s_per_s": median(lambda b: b["sim_s"] / b["wall_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def counters(batch: dict) -> dict:
    """Exact per-layer metrics of one batch (absent sources left out)."""
    raw = batch["counters"]
    out = {k: v for k, v in raw.items() if k in COUNT_UNITS}
    for name, (num, den) in _RATIOS.items():
        if num in raw and raw.get(den):
            out[name] = raw[num] / raw[den]
    return out


def measured(batches: list) -> dict:
    """Per-layer timings of an untraced run: medians over its batches."""
    def median(key):
        return statistics.median(b[key] for b in batches)

    out = {
        "harness.parent_cpu_s": median("parent_cpu_s"),
        "harness.worker_cpu_s": median("worker_cpu_s"),
        "harness.parallel_efficiency": median("parallel_efficiency"),
    }
    events = batches[0]["counters"].get("sim.events_processed")
    if events:
        out["sim.ref_cpu_us_per_event"] = median("ref_cpu_s") * 1e6 / events
    if all("replay_s" in b for b in batches):
        out["harness.replay_s"] = median("replay_s")
    return out


def profile_metrics(run: dict) -> dict:
    """Layer shares and calls from a profile-mode run's profiled batch."""
    plain, profiled = run["batches"]
    out = {f"{name}.self_share": value
           for name, value in shares(profiled["layer_seconds"]).items()}
    out.update({f"{name}.calls": n for name, n in profiled["layer_calls"].items()})
    out["profile.overhead_x"] = profiled["ref_cpu_s"] / plain["ref_cpu_s"]
    return out


def check(workload: str, seed: int, run: dict, golden: dict):
    """Count failed cells: raised, broke an invariant, or digest mismatch.

    Returns (attempted, failed, problems, golden status).  Figure rows
    carry fixed seeds, so ``figures_jobs2`` is checked on every seed.
    """
    if workload == "figures_jobs2":
        reference = golden.get("figures_jobs2")
    else:
        reference = golden.get("seeds", {}).get(str(seed), {}).get(workload)
    status = "checked" if reference else "unchecked"
    first = run["batches"][0]["digests"]
    attempted = failed = 0
    problems = []
    for index, batch in enumerate(run["batches"]):
        attempted += batch["attempted"]
        bad = {label for label, _ in batch["problems"]}
        problems += [f"batch {index}: {label}: {msg}" for label, msg in batch["problems"]]
        for label, digest in batch["digests"].items():
            expected = (reference or first).get(label)
            if digest != expected:
                bad.add(label)
                problems.append(f"batch {index}: {label}: digest {digest[:12]} "
                                f"!= expected {str(expected)[:12]}")
        failed += len(bad)
    return attempted, failed, problems, status


# -- one run of one workload (BENCHMARK.json's command) --------------------
def single(args, spec: dict) -> int:
    run = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    attempted, failed, problems, _status = check(args.workload, args.seed, run, golden)
    for problem in problems:
        print(f"FAILED {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    try:
        if args.trace:
            values = {**counters(run["batches"][0]), **measured(run["batches"][:1]),
                      **profile_metrics(run)}
            wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values = end_to_end(run)
            wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except (KeyError, ZeroDivisionError, statistics.StatisticsError):
        if failed:
            return 1  # failed cells left nothing to measure
        raise
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError(f"{args.workload}: no value for {', '.join(missing)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if failed == 0 else 1


# -- the suite ---------------------------------------------------------------
def summarize(values: list) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and n."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    started = time.monotonic()
    runs = {name: [] for name in names}
    tally = {name: [0, 0, [], "unchecked"] for name in names}

    def record(name, run):
        attempted, failed, problems, status = check(name, args.seed, run, golden)
        entry = tally[name]
        entry[0] += attempted
        entry[1] += failed
        entry[2] += problems
        entry[3] = status

    for rep in range(args.reps):
        # Round-robin, starting one workload later each repetition, so
        # drift on the host hits every workload alike.
        for i in range(len(names)):
            name = names[(rep + i) % len(names)]
            print(f"[{time.monotonic() - started:6.0f} s] rep {rep + 1}/{args.reps} "
                  f"{name}", file=sys.stderr, flush=True)
            run = run_once(name, args.seed, args.seconds, profile=False)
            runs[name].append(run)
            record(name, run)
    profiles = {}
    for name in names:
        print(f"[{time.monotonic() - started:6.0f} s] profile {name}",
              file=sys.stderr, flush=True)
        profiles[name] = run_once(name, args.seed, args.seconds, profile=True)
        record(name, profiles[name])

    report = {
        "schema": 1,
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in names:
        attempted, failed, problems, status = tally[name]
        e2e = [end_to_end(run) for run in runs[name]]
        metrics = {m: summarize([row[m] for row in e2e]) for m in e2e[0]}
        metrics["failed_frac"] = summarize([failed / attempted])
        for metric, unit in E2E_UNITS.items():
            metrics[metric]["unit"] = unit
        batches = [b for run in runs[name] for b in run["batches"]]
        exact = counters(batches[0])
        identical = all(counters(b) == exact for b in batches)
        timings = [measured(run["batches"]) for run in runs[name]]
        layer_values = {**exact, **profile_metrics(profiles[name])}
        layer_values.update({k: statistics.median(t[k] for t in timings)
                             for k in timings[0]})
        report["workloads"][name] = {
            "end_to_end": metrics,
            "layers": {k: {"value": layer_values[k], "unit": LAYER_UNITS[k]}
                       for k in LAYER_UNITS if k in layer_values},
            "counters_identical": identical,
            "golden": status,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
        }
    report["total_s"] = time.monotonic() - started
    print_report(report)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    failures = sum(w["failed"] for w in report["workloads"].values())
    return 0 if failures == 0 else 1


def print_report(report: dict) -> None:
    print(f"seed {report['seed']}, {report['reps']} reps of "
          f"{report['seconds']:g} s, total {report['total_s']:.0f} s")
    print(f"{'workload':20} {'metric':20} {'unit':8} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'n':>3}")
    for name, entry in report["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            print(f"{name:20} {metric:20} {s['unit']:8} {s['median']:10.4g} "
                  f"{s['q1']:10.4g} {s['q3']:10.4g} {s['n']:3d}")
    for name, entry in report["workloads"].items():
        print(f"\n{name}: golden {entry['golden']}, attempted {entry['attempted']}, "
              f"failed {entry['failed']}, counters identical across runs: "
              f"{'yes' if entry['counters_identical'] else 'NO'}")
        shares = "  ".join(
            f"{layer} {entry['layers'][layer + '.self_share']['value'] * 100:.1f}%"
            for layer in ALL)
        print(f"  self share: {shares}")
        for metric, v in entry["layers"].items():
            if not metric.endswith(".self_share"):
                value = v["value"]
                text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
                print(f"  {metric:32} {text} {v['unit']}")
        for problem in entry["problems"]:
            print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with per-layer attribution.")
    parser.add_argument("--workload", help="one run of this workload, as one JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring window of one run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--reps", type=int, default=5,
                        help="suite: untraced runs per workload")
    parser.add_argument("--out", type=Path, help="suite: write the results here")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally blocks stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.reps < 1 or args.seconds <= 0:
        parser.error("--reps and --seconds must be positive")
    try:
        if args.workload is not None:
            if args.workload not in {w["name"] for w in spec["workloads"]}:
                parser.error(f"unknown workload {args.workload!r}")
            return single(args, spec)
        return suite(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
