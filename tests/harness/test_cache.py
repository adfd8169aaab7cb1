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


def _shared_flight_worker(payload):
    """Module-level (picklable) worker for the fork-pool single-flight test."""
    import time as _time

    from repro.harness.cache import SharedResultCache

    root, key = payload
    cache = SharedResultCache(root)

    def compute():
        _time.sleep(0.2)  # widen the race window: everyone piles on the lock
        return freeze_result(run_experiment(_quick_experiment(duration=1.5)))

    result = cache.fetch_or_compute(key, compute)
    return result.digest_hex()


class TestSharedSingleFlight:
    """Cross-process single-flight: compute once, share, never deadlock."""

    def _cache(self, tmp_path):
        from repro.harness.cache import SharedResultCache

        cache = SharedResultCache(tmp_path)
        cache.LOCK_POLL_INTERVAL = 0.01
        cache.LOCK_TIMEOUT = 10.0
        return cache

    def _frozen(self):
        return freeze_result(run_experiment(_quick_experiment(duration=1.5)))

    def test_computes_once_then_serves_from_disk(self, tmp_path):
        cache = self._cache(tmp_path)
        key = "ab" + "0" * 62
        frozen = self._frozen()
        assert cache.fetch_or_compute(key, lambda: frozen) is frozen
        assert cache.stats.computes == 1

        def boom():
            raise AssertionError("cached entry must not be recomputed")

        again = cache.fetch_or_compute(key, boom)
        assert again.digest() == frozen.digest()
        assert cache.stats.computes == 1
        assert cache.event_counts() == {"compute": 1, "wait": 0}

    def test_failed_compute_is_not_cached(self, tmp_path):
        cache = self._cache(tmp_path)
        key = "cd" + "0" * 62
        assert cache.fetch_or_compute(key, lambda: None) is None
        assert cache.get(key) is None  # failure never published
        frozen = self._frozen()
        assert cache.fetch_or_compute(key, lambda: frozen) is frozen
        assert cache.stats.computes == 2

    def test_waiter_shares_the_winners_entry(self, tmp_path):
        """While another holder owns the key's lock, fetch_or_compute
        must wait for the published entry instead of simulating."""
        import fcntl
        import os
        import threading

        cache = self._cache(tmp_path)
        key = "ef" + "0" * 62
        frozen = self._frozen()
        lock_path = cache._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX)  # pose as the winning process
        got = []

        def boom():
            raise AssertionError("waiter must not compute a published entry")

        waiter = threading.Thread(
            target=lambda: got.append(cache.fetch_or_compute(key, boom))
        )
        waiter.start()
        try:
            import time

            time.sleep(0.05)
            cache.put(key, frozen)  # the "winner" publishes
            waiter.join(timeout=5.0)
        finally:
            os.close(fd)
        assert not waiter.is_alive()
        assert got and got[0].digest() == frozen.digest()
        assert cache.stats.waits == 1
        assert cache.stats.computes == 0

    def test_waiter_inherits_lock_from_dead_winner(self, tmp_path):
        """A winner that dies without publishing must not strand the
        waiters: the flock dies with its fd and the next poll wins it."""
        import fcntl
        import os
        import threading
        import time

        cache = self._cache(tmp_path)
        key = "12" + "0" * 62
        frozen = self._frozen()
        lock_path = cache._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX)
        got = []
        waiter = threading.Thread(
            target=lambda: got.append(cache.fetch_or_compute(key, lambda: frozen))
        )
        waiter.start()
        time.sleep(0.05)
        os.close(fd)  # winner crashes: lock released, nothing published
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert got and got[0] is frozen
        assert cache.stats.computes == 1
        assert cache.stats.waits == 1

    def test_event_log_aggregates(self, tmp_path):
        cache = self._cache(tmp_path)
        frozen = self._frozen()
        cache.fetch_or_compute("a1" + "0" * 62, lambda: frozen)
        cache.fetch_or_compute("b2" + "0" * 62, lambda: frozen)
        assert cache.event_counts() == {"compute": 2, "wait": 0}

    def test_four_processes_compute_once(self, tmp_path):
        """The real thing: a fork pool racing on one key computes it
        exactly once fleet-wide and every process gets the same bits."""
        import multiprocessing

        from repro.harness.cache import SharedResultCache

        key = "fe" + "0" * 62
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=4) as pool:
            digests = pool.map(
                _shared_flight_worker, [(str(tmp_path), key)] * 4
            )
        assert len(set(digests)) == 1
        counts = SharedResultCache(tmp_path).event_counts()
        assert counts["compute"] == 1
        assert counts["wait"] == 3


class TestInFlightProbe:
    """``in_flight`` is the non-blocking peek behind shared-cache-aware
    scheduling: it must see a held per-key lock without ever waiting."""

    def _cache(self, tmp_path):
        from repro.harness.cache import SharedResultCache

        return SharedResultCache(tmp_path)

    def test_unknown_key_is_not_in_flight(self, tmp_path):
        cache = self._cache(tmp_path)
        assert cache.in_flight("aa" + "0" * 62) is False

    def test_held_lock_reads_as_in_flight_until_released(self, tmp_path):
        import fcntl
        import os

        cache = self._cache(tmp_path)
        key = "bb" + "0" * 62
        lock_path = cache._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT)
        try:
            assert cache.in_flight(key) is False  # file exists, unlocked
            fcntl.flock(fd, fcntl.LOCK_EX)
            assert cache.in_flight(key) is True
            fcntl.flock(fd, fcntl.LOCK_UN)
            assert cache.in_flight(key) is False
        finally:
            os.close(fd)

    def test_probe_does_not_steal_the_lock(self, tmp_path):
        """The probe's transient flock must not leave the key locked —
        a later holder must still be able to win it immediately."""
        import fcntl
        import os

        cache = self._cache(tmp_path)
        key = "cc" + "0" * 62
        lock_path = cache._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT)
        try:
            assert cache.in_flight(key) is False
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # must not raise
        finally:
            os.close(fd)
