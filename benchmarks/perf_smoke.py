"""Perf smoke: determinism regressions + benchmark harness sanity.

Run as tests (CI's `perf-smoke` job)::

    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py -q

or as a script, which also writes the ``BENCH_<date>.json`` artifact::

    PYTHONPATH=src python benchmarks/perf_smoke.py

The determinism checks here are deliberately *bit-exact* (``digest()``
equality, not approx): the simulator promises same seed ⇒ same result,
serial or parallel, fresh or cached, and any drift is a regression even
when the numbers only move in the 15th decimal.
"""

import tempfile

from repro.harness.cache import ResultCache
from repro.harness.factories import coupled_factory
from repro.harness.supervisor import SupervisorConfig
from repro.harness.sweep import run_coexistence_grid

#: Small enough for CI, big enough to cross warmup and exercise the AQM.
TINY_GRID = {"links_mbps": (4, 12), "rtts_ms": (5, 10), "duration": 5.0, "warmup": 2.0}


def _digests(outcome):
    return [cell.result.digest() for cell in outcome]


def test_serial_rerun_is_bit_identical():
    a = run_coexistence_grid(coupled_factory(), seed=7, **TINY_GRID)
    b = run_coexistence_grid(coupled_factory(), seed=7, **TINY_GRID)
    assert _digests(a) == _digests(b)


def test_parallel_matches_serial_bit_exact():
    serial = run_coexistence_grid(coupled_factory(), seed=7, **TINY_GRID)
    parallel = run_coexistence_grid(coupled_factory(), seed=7, jobs=2, **TINY_GRID)
    assert len(serial) == len(parallel)
    assert [(c.link_mbps, c.rtt_ms) for c in serial] == [
        (c.link_mbps, c.rtt_ms) for c in parallel
    ]
    assert _digests(serial) == _digests(parallel)


def test_cached_rerun_matches_and_hits():
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        cold = run_coexistence_grid(coupled_factory(), seed=7, cache=cache, **TINY_GRID)
        assert cache.stats.stores == len(cold)
        warm = run_coexistence_grid(coupled_factory(), seed=7, cache=cache, **TINY_GRID)
        assert cache.stats.hits == len(cold)
        assert _digests(cold) == _digests(warm)


def test_supervised_matches_serial_bit_exact():
    """The watchdogged backend must be invisible in the results."""
    serial = run_coexistence_grid(coupled_factory(), seed=7, **TINY_GRID)
    supervised = run_coexistence_grid(
        coupled_factory(), seed=7, jobs=2, supervisor=SupervisorConfig(),
        **TINY_GRID
    )
    assert _digests(serial) == _digests(supervised)
    assert supervised.recovery is not None
    assert supervised.recovery.executed == len(serial)


def test_journal_resume_matches_uninterrupted_bit_exact():
    """A journaled run resumed from its own journal replays every cell
    without re-simulating, and the digests are bit-identical."""
    import os

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "grid.journal")
        first = run_coexistence_grid(
            coupled_factory(), seed=7, journal=journal,
            supervisor=SupervisorConfig(), **TINY_GRID
        )
        resumed = run_coexistence_grid(
            coupled_factory(), seed=7, journal=journal, resume=True,
            supervisor=SupervisorConfig(), **TINY_GRID
        )
        assert _digests(first) == _digests(resumed)
        assert resumed.recovery.replayed == len(first)
        assert resumed.recovery.executed == 0


def test_shared_cache_single_flight():
    """N workers x the same figure cells -> each cell computed once."""
    from repro.perf import bench_shared_cache

    record = bench_shared_cache(jobs=4, seed=7)
    assert record.extra["single_flight_ok"] is True
    assert record.extra["compute_count"] == record.extra["unique_cells"]
    assert record.extra["requests"] == (
        record.extra["workers"] * record.extra["unique_cells"]
    )


def test_figure_resume_matches_bit_exact():
    """Journaled and resumed figure runs must reproduce the plain rows
    byte-for-byte, and journaling must cost <5% (or <0.5s absolute)."""
    from repro.perf import bench_figure_resume

    record = bench_figure_resume(scale=0.1)
    assert record.extra["matches_serial"] is True
    assert record.extra["matches_resume"] is True
    assert record.extra["journal_overhead_ok"] is True
    assert record.extra["cells"] == 2
    assert record.extra["replayed"] == 2
    assert record.extra["resume_executed"] == 0
    assert record.extra["journal_bytes"] > 0


def test_journal_overhead_within_gate():
    """Per-cell fsync'd journaling must cost <5% (or <0.5s absolute)."""
    from repro.perf import bench_supervised

    record = bench_supervised(grid=TINY_GRID, seed=7)
    assert record.extra["matches_serial"] is True
    assert record.extra["matches_resume"] is True
    assert record.extra["journal_overhead_ok"] is True
    assert record.extra["journal_bytes"] > 0


def test_bench_payload_shape(tmp_path=None):
    from repro.perf import run_benchmarks, write_bench_json

    payload = run_benchmarks(quick=True)
    names = {bench["name"] for bench in payload["benchmarks"]}
    assert {
        "engine_events",
        "cancel_churn",
        "experiment_light_tcp",
        "grid_serial",
        "grid_parallel",
        "grid_cache_cold",
        "grid_cache_warm",
        "grid_supervised",
        "figure_resume",
        "shared_cache",
    } <= names
    by_name = {bench["name"]: bench for bench in payload["benchmarks"]}
    assert by_name["grid_parallel"]["matches_serial"] is True
    assert by_name["grid_cache_warm"]["matches_cold"] is True
    assert by_name["engine_events"]["events_per_sec"] > 0
    assert by_name["grid_supervised"]["matches_serial"] is True
    assert by_name["grid_supervised"]["matches_resume"] is True
    assert by_name["grid_supervised"]["journal_overhead_ok"] is True
    assert by_name["figure_resume"]["matches_serial"] is True
    assert by_name["figure_resume"]["matches_resume"] is True
    assert by_name["figure_resume"]["journal_overhead_ok"] is True
    assert by_name["shared_cache"]["single_flight_ok"] is True
    if tmp_path is not None:
        path = write_bench_json(payload, tmp_path / "BENCH_smoke.json")
        assert path.exists()


def main() -> int:
    """Script mode: run the checks, then emit the benchmark artifact."""
    from repro.perf import format_bench_table, run_benchmarks, write_bench_json

    test_serial_rerun_is_bit_identical()
    test_parallel_matches_serial_bit_exact()
    test_cached_rerun_matches_and_hits()
    test_shared_cache_single_flight()
    test_supervised_matches_serial_bit_exact()
    test_journal_resume_matches_uninterrupted_bit_exact()
    test_figure_resume_matches_bit_exact()
    payload = run_benchmarks(quick=True)
    print(format_bench_table(payload))
    path = write_bench_json(payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
