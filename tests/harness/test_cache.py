"""On-disk result cache: keying, hit/miss/invalidation, and corruption
handling.

The safety property is that a cache hit is indistinguishable from a
re-simulation (``digest()`` equality) and that *any* config change —
seed, duration, one AQM parameter — changes the key and forces a miss.
Anything whose configuration cannot be described (lambda factories) is
uncacheable by design, never silently mis-keyed.
"""

import pickle
from dataclasses import replace

import pytest

from repro.aqm.pi import PiAqm
from repro.harness.cache import (
    CacheStats,
    ResultCache,
    code_fingerprint,
    describe_aqm_factory,
    experiment_cache_key,
)
from repro.harness.experiment import Experiment, FlowGroup, run_experiment
from repro.harness.factories import coupled_factory, pi2_factory
from repro.harness.frozen import FrozenResult, freeze_result
from repro.harness.sweep import run_coexistence_grid


def _quick_experiment(**overrides):
    defaults = dict(
        capacity_bps=10e6,
        duration=3.0,
        warmup=1.0,
        aqm_factory=pi2_factory(),
        flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
    )
    defaults.update(overrides)
    return Experiment(**defaults)


def _module_level_factory(rng):
    return PiAqm(rng=rng)


class TestFactoryDescription:
    def test_named_factory_describes_itself(self):
        description = describe_aqm_factory(pi2_factory())
        assert "Pi2Aqm" in description or "pi2" in description.lower()

    def test_kwargs_change_the_description(self):
        assert describe_aqm_factory(pi2_factory()) != describe_aqm_factory(
            pi2_factory(target_delay=0.05)
        )

    def test_plain_function_uses_qualname(self):
        description = describe_aqm_factory(_module_level_factory)
        assert description.endswith("_module_level_factory")

    def test_lambda_is_undescribable(self):
        assert describe_aqm_factory(lambda rng: PiAqm(rng=rng)) is None

    def test_closure_is_undescribable(self):
        hidden = 0.05

        def make(rng):
            return PiAqm(rng=rng, target_delay=hidden)

        assert describe_aqm_factory(make) is None


class TestExperimentKey:
    def test_same_config_same_key(self):
        assert experiment_cache_key(_quick_experiment()) == experiment_cache_key(
            _quick_experiment()
        )

    def test_every_field_change_changes_key(self):
        base = _quick_experiment()
        key = experiment_cache_key(base)
        variants = [
            replace(base, seed=99),
            replace(base, duration=4.0),
            replace(base, warmup=0.5),
            replace(base, capacity_bps=12e6),
            replace(base, sample_period=0.25),
            _quick_experiment(aqm_factory=pi2_factory(target_delay=0.05)),
            _quick_experiment(flows=[FlowGroup(cc="reno", count=3, rtt=0.02)]),
        ]
        keys = [experiment_cache_key(v) for v in variants]
        assert key not in keys
        assert len(set(keys)) == len(keys)  # all variants distinct too

    def test_uncacheable_factory_gives_none(self):
        exp = _quick_experiment(aqm_factory=lambda rng: PiAqm(rng=rng))
        assert experiment_cache_key(exp) is None

    def test_code_fingerprint_is_stable_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # valid hex


class TestResultCacheStore:
    def test_put_get_round_trip_is_bit_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        exp = _quick_experiment()
        frozen = freeze_result(run_experiment(exp))
        key = experiment_cache_key(exp)
        cache.put(key, frozen)
        loaded = cache.get(key)
        assert isinstance(loaded, FrozenResult)
        assert loaded.digest() == frozen.digest()
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.stats == CacheStats(hits=0, misses=1, stores=0)

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert not path.exists()

    def test_wrong_type_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "a FrozenResult"}))
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        exp = _quick_experiment()
        frozen = freeze_result(run_experiment(exp))
        cache.put(experiment_cache_key(exp), frozen)
        cache.put(experiment_cache_key(replace(exp, seed=2)), frozen)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


    def test_missing_root_reads_as_empty_without_creating_it(self, tmp_path):
        cache = ResultCache(tmp_path / "absent")
        assert cache.get("ab" + "0" * 62) is None
        assert (len(cache), cache.verify(), cache.clear()) == (0, (0, []), 0)
        assert not cache.root.exists()

    def test_put_replaces_an_existing_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = experiment_cache_key(_quick_experiment())
        for seed in (1, 2):
            latest = freeze_result(run_experiment(_quick_experiment(seed=seed)))
            cache.put(key, latest)
        assert len(cache) == 1
        assert cache.get(key).digest() == latest.digest()
        assert sorted(tmp_path.rglob(".*.tmp")) == []

    def test_failed_put_leaves_no_entry_and_no_temp_file(self, tmp_path):
        """A store that fails mid-write removes its temp file and leaves
        the key absent, so the next run simply misses."""

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("cannot pickle")

        cache, key = ResultCache(tmp_path), "ab" + "0" * 62
        with pytest.raises(RuntimeError, match="cannot pickle"):
            cache.put(key, Unpicklable())
        assert sorted(tmp_path.rglob(".*.tmp")) == []
        assert cache.stats.stores == 0
        assert cache.get(key) is None and not cache._path(key).exists()

    def test_stale_temp_file_is_not_an_entry(self, tmp_path):
        """A writer killed between write and rename leaves a temp file;
        it is never counted, verified or served."""
        cache, exp = ResultCache(tmp_path), _quick_experiment()
        key, frozen = experiment_cache_key(exp), freeze_result(run_experiment(exp))
        cache.put(key, frozen)
        path = cache._path(key)
        path.with_name(f".{path.name}.999999.tmp").write_bytes(b"\x80\x05 torn")
        assert len(cache) == 1 and cache.verify() == (1, [])
        assert cache.get(key).digest() == frozen.digest()
        assert cache.stats.corrupt == 0

class TestSweepIntegration:
    def test_warm_rerun_hits_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(
            links_mbps=[10], rtts_ms=[10, 20], duration=3.0, warmup=1.0, seed=3
        )
        cold = run_coexistence_grid(coupled_factory(), cache=cache, **kwargs)
        assert cache.stats.misses == 2
        assert cache.stats.stores == 2
        warm = run_coexistence_grid(coupled_factory(), cache=cache, **kwargs)
        assert cache.stats.hits == 2
        assert cache.stats.stores == 2  # nothing re-stored
        assert [c.result.digest() for c in cold] == [
            c.result.digest() for c in warm
        ]

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(links_mbps=[10], rtts_ms=[10], duration=3.0, warmup=1.0)
        run_coexistence_grid(coupled_factory(), cache=cache, seed=3, **kwargs)
        run_coexistence_grid(coupled_factory(), cache=cache, seed=4, **kwargs)
        # The seed change must re-simulate, not hit.
        assert cache.stats.hits == 0
        assert cache.stats.stores == 2

    def test_uncacheable_factory_still_runs(self, tmp_path):
        cache = ResultCache(tmp_path)
        outcome = run_coexistence_grid(
            lambda rng: PiAqm(rng=rng),
            links_mbps=[10], rtts_ms=[10], duration=3.0, warmup=1.0,
            cache=cache,
        )
        assert len(outcome) == 1
        assert outcome[0].result.total_goodput_bps() > 0
        # No key, so nothing was stored or looked up.
        assert cache.stats == CacheStats(hits=0, misses=0, stores=0)
        assert len(cache) == 0


class TestCorruptionHardening:
    def test_corrupt_entry_is_counted_and_logged(self, tmp_path, caplog):
        import logging

        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
            assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert any("corrupt cache entry" in r.message for r in caplog.records)
        assert not path.exists()

    def test_corrupt_entry_is_recomputed_transparently(self, tmp_path):
        """A sweep over a poisoned cache must re-simulate and restore the
        entry, bit-exact with the clean run."""
        cache = ResultCache(tmp_path)
        kwargs = dict(links_mbps=[10], rtts_ms=[10], duration=3.0,
                      warmup=1.0, seed=3)
        clean = run_coexistence_grid(coupled_factory(), cache=cache, **kwargs)
        [entry] = list(cache.root.glob("*/*.pkl"))
        entry.write_bytes(b"\x00garbage")
        again = run_coexistence_grid(coupled_factory(), cache=cache, **kwargs)
        assert cache.stats.corrupt == 1
        assert cache.stats.stores == 2  # re-stored after recompute
        assert [c.result.digest() for c in clean] == [
            c.result.digest() for c in again
        ]

    def test_verify_reports_and_prunes(self, tmp_path):
        cache = ResultCache(tmp_path)
        exp = _quick_experiment()
        frozen = freeze_result(run_experiment(exp))
        cache.put(experiment_cache_key(exp), frozen)
        bad = cache._path("ef" + "0" * 62)
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"junk")
        wrong_type = cache._path("aa" + "1" * 62)
        wrong_type.parent.mkdir(parents=True, exist_ok=True)
        wrong_type.write_bytes(pickle.dumps(["not", "frozen"]))

        ok, corrupt = cache.verify(prune=False)
        assert ok == 1
        assert len(corrupt) == 2
        assert bad.exists() and wrong_type.exists()  # prune=False: read-only

        ok, corrupt = cache.verify(prune=True)
        assert ok == 1
        assert len(corrupt) == 2
        assert not bad.exists() and not wrong_type.exists()
        assert cache.stats.corrupt == 2
        assert len(cache) == 1

    def test_verify_empty_cache(self, tmp_path):
        ok, corrupt = ResultCache(tmp_path / "nothing-here").verify()
        assert (ok, corrupt) == (0, [])

    def test_cli_cache_verify(self, tmp_path):
        from io import StringIO

        from repro.cli import main

        cache = ResultCache(tmp_path)
        exp = _quick_experiment()
        cache.put(experiment_cache_key(exp), freeze_result(run_experiment(exp)))
        out = StringIO()
        assert main(["cache", "--cache-dir", str(tmp_path), "--verify"],
                    out=out) == 0
        assert "1 entry OK" in out.getvalue()
        bad = cache._path("ab" + "0" * 62)
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"junk")
        out = StringIO()
        assert main(["cache", "--cache-dir", str(tmp_path), "--verify"],
                    out=out) == 1
        assert "pruned 1 corrupt entry" in out.getvalue()
        assert not bad.exists()


def _simulate_then_put(root, key, barrier):
    """Child body for the concurrent-writers tests (module-level so it
    pickles by reference under fork): simulate the cell, wait for the
    other writer, then store."""
    frozen = freeze_result(run_experiment(_quick_experiment()))
    barrier.wait(timeout=60)
    ResultCache(root).put(key, frozen)


def _put_repeatedly(root, key, results, rounds):
    """Child body: store ``results`` under one key in turn, ``rounds``
    times over, so the last store is ``results[-1]``."""
    cache = ResultCache(root)
    for _ in range(rounds):
        for result in results:
            cache.put(key, result)


def _run_children(ctx, target, arg_lists, while_running=None):
    """Fork one child per argument tuple, call ``while_running`` (if
    given) until they have all exited, and return their exit codes."""
    children = [ctx.Process(target=target, args=args) for args in arg_lists]
    for child in children:
        child.start()
    try:
        while while_running is not None and any(c.is_alive() for c in children):
            while_running()
        for child in children:
            child.join(timeout=120)
    finally:
        for child in children:
            if child.is_alive():
                child.kill()
    return [child.exitcode for child in children]


class TestConcurrentWriters:
    """Two processes that miss the same key both simulate the cell and
    both store it.  Each writes its own temp file and renames it over
    the entry, so the entry ends up whole, with the bytes a lone writer
    leaves, and no temp file remains."""

    def test_two_writers_leave_a_lone_writers_bytes(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        key = experiment_cache_key(_quick_experiment())
        shared = tmp_path / "shared"
        barrier = ctx.Barrier(2)
        codes = _run_children(ctx, _simulate_then_put, [(shared, key, barrier)] * 2)
        assert codes == [0, 0]

        lone = ResultCache(tmp_path / "lone")
        lone.put(key, freeze_result(run_experiment(_quick_experiment())))
        cache = ResultCache(shared)
        assert cache._path(key).read_bytes() == lone._path(key).read_bytes()
        assert sorted(shared.rglob(".*.tmp")) == []
        assert cache.verify() == (1, [])

    def test_writers_of_two_keys_in_one_shard(self, tmp_path):
        """Both writers create the same two-character shard directory at
        once, each for its own key; both entries land whole."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        keys = ["ab" + "1" * 62, "ab" + "2" * 62]
        barrier = ctx.Barrier(2)
        codes = _run_children(ctx, _simulate_then_put,
                              [(tmp_path, key, barrier) for key in keys])
        assert codes == [0, 0]
        cache = ResultCache(tmp_path)
        assert cache.verify() == (2, [])
        assert cache.get(keys[0]).digest() == cache.get(keys[1]).digest()

    def test_reader_sees_only_whole_entries(self, tmp_path):
        """While one process keeps replacing an entry, a reader in
        another gets either a miss (before the first rename) or a whole
        result, never a torn one."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        results = [freeze_result(run_experiment(_quick_experiment(seed=s)))
                   for s in (1, 2)]
        key, reader, seen = "cd" + "0" * 62, ResultCache(tmp_path), set()

        def read():
            hit = reader.get(key)
            if hit is not None:
                seen.add(hit.digest_hex())

        codes = _run_children(ctx, _put_repeatedly,
                              [(tmp_path, key, results, 40)], read)
        assert codes == [0]
        assert reader.stats.corrupt == 0
        assert seen <= {result.digest_hex() for result in results}
        assert reader.get(key).digest() == results[1].digest()

