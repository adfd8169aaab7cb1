"""Supervised execution backend: parity, retry policy, degradation.

The supervisor must be *invisible* in the results — bit-exact digest
parity with the inline backend in every mode — while being very
visible in its reporting: every retry, kill and degradation lands in
the recovery log, and terminal failures carry the full attempt history.
``execute_tasks`` runs cells on it when ``jobs`` resolves to more than
one worker or a timeout is given.
"""

import pytest

from repro.errors import ConfigError, ParallelExecutionError
from repro.harness import supervisor as supervisor_module
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import pi2_factory
from repro.harness.parallel import RunReport, SweepTask, execute_tasks
from repro.harness.resilience import RETRY_SEED_STRIDE


def _supervised(tasks, **kwargs):
    """``execute_tasks`` on the supervised backend (two workers)."""
    return execute_tasks(tasks, jobs=2, **kwargs)


def _quick_experiment(**overrides):
    defaults = dict(
        capacity_bps=10e6,
        duration=2.0,
        warmup=0.5,
        aqm_factory=pi2_factory(),
        flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
    )
    defaults.update(overrides)
    return Experiment(**defaults)


def _tasks(n=3):
    return [SweepTask(f"t{s}", _quick_experiment(seed=s)) for s in range(1, n + 1)]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout": 0.0},
            {"task_timeout": -1.0},
            {"heartbeat_timeout": 0.0},
            {"heartbeat_timeout": -2.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            execute_tasks(_tasks(1), **kwargs)

    def test_defaults_valid(self):
        """The retry policy's constants describe a policy that can run."""
        assert supervisor_module.HEARTBEAT_INTERVAL > 0
        assert supervisor_module.MAX_TASK_FAILURES >= 0
        assert supervisor_module.BACKOFF_BASE >= 0
        assert supervisor_module.BACKOFF_FACTOR >= 1
        assert supervisor_module.BACKOFF_MAX >= 0
        assert supervisor_module.MAX_SPAWN_FAILURES >= 1

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ConfigError):
            _supervised(_tasks(1), resume=True)

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            _supervised(_tasks(1), on_error="ignore")


class TestParity:
    def test_supervised_matches_plain_executor_bit_exact(self):
        tasks = _tasks(3)
        plain = execute_tasks(tasks, jobs=1)
        report = RunReport()
        supervised = _supervised(tasks, report=report)
        assert [r.digest() for r, _ in supervised] == [
            r.digest() for r, _ in plain
        ]
        assert report.executed == 3
        assert report.heartbeats >= 3  # each worker beats at least once
        assert not report.degraded
        assert report.actions == []

    def test_capture_failure_parity_with_plain_executor(self):
        """A poisoned cell fails with the same seeds_tried under
        supervision as under the inline executor's seed-bump retries."""
        tasks = [
            SweepTask("ok", _quick_experiment()),
            SweepTask("doomed", _quick_experiment(max_events=500, seed=9)),
        ]
        plain = execute_tasks(tasks, jobs=1, on_error="capture", max_retries=1)
        supervised = _supervised(tasks, on_error="capture", max_retries=1)
        (_, plain_fail) = plain[1]
        (none_result, sup_fail) = supervised[1]
        assert none_result is None
        assert sup_fail.label == plain_fail.label == "doomed"
        assert sup_fail.error_type == plain_fail.error_type == "WatchdogExceeded"
        assert sup_fail.seeds_tried == plain_fail.seeds_tried == (
            9, 9 + RETRY_SEED_STRIDE,
        )
        assert len(sup_fail.attempts) == 2
        assert all(a.kind == "exception" for a in sup_fail.attempts)
        assert sup_fail.worker is not None and sup_fail.worker.startswith("pid:")
        assert supervised[0][0].digest() == plain[0][0].digest()

    def test_raise_mode_raises_first_failure_in_task_order(self):
        tasks = [
            SweepTask("ok", _quick_experiment()),
            SweepTask("first-bad", _quick_experiment(max_events=500, seed=2)),
            SweepTask("second-bad", _quick_experiment(max_events=400, seed=3)),
        ]
        with pytest.raises(ParallelExecutionError) as excinfo:
            _supervised(tasks, on_error="raise")
        assert excinfo.value.label == "first-bad"
        assert excinfo.value.error_type == "WatchdogExceeded"

    def test_raise_mode_does_not_seed_bump(self):
        """Serial raise-mode never retries; supervised must match."""
        tasks = [SweepTask("doomed", _quick_experiment(max_events=500, seed=5))]
        with pytest.raises(ParallelExecutionError):
            _supervised(tasks, on_error="raise", max_retries=3)


class TestJournalIntegration:
    def test_journal_path_accepted_and_populated(self, tmp_path):
        from repro.harness.journal import ResultJournal

        journal = tmp_path / "run.journal"
        tasks = _tasks(2)
        report = RunReport()
        _supervised(tasks, journal=journal, report=report)
        assert report.journal_appends == 2
        assert len(ResultJournal(journal).read().records) == 2

    def test_resume_replays_instead_of_executing(self, tmp_path):
        journal = tmp_path / "run.journal"
        tasks = _tasks(3)
        first = _supervised(tasks, journal=journal)
        report = RunReport()
        resumed = _supervised(
            tasks, journal=journal, resume=True, report=report
        )
        assert report.replayed == 3
        assert report.executed == 0
        assert [r.digest() for r, _ in resumed] == [
            r.digest() for r, _ in first
        ]

    def test_resume_executes_only_the_remainder(self, tmp_path):
        journal = tmp_path / "run.journal"
        tasks = _tasks(4)
        _supervised(tasks[:2], journal=journal)
        report = RunReport()
        full = _supervised(
            tasks, journal=journal, resume=True, report=report
        )
        assert report.replayed == 2
        assert report.executed == 2
        reference = execute_tasks(tasks, jobs=1)
        assert [r.digest() for r, _ in full] == [
            r.digest() for r, _ in reference
        ]

    def test_cache_hits_are_journaled_for_later_resume(self, tmp_path):
        from repro.harness.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks(2)
        execute_tasks(tasks, jobs=1, cache=cache)  # warm the cache
        journal = tmp_path / "run.journal"
        report = RunReport()
        _supervised(tasks, cache=cache, journal=journal, report=report)
        assert report.cache_hits == 2
        assert report.executed == 0
        assert report.journal_appends == 2
        resumed_report = RunReport()
        _supervised(
            tasks, journal=journal, resume=True, report=resumed_report
        )
        assert resumed_report.replayed == 2


def _broken_spawn(ctx):
    raise OSError("no more processes")


class TestDegradation:
    @pytest.fixture(autouse=True)
    def _no_workers(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "_start_worker", _broken_spawn)
        monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 0.01)

    def test_spawn_failures_degrade_to_serial(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_SPAWN_FAILURES", 2)
        tasks = _tasks(2)
        report = RunReport()
        out = _supervised(tasks, report=report)
        assert report.degraded
        assert any(a.action == "degrade to serial" for a in report.actions)
        reference = execute_tasks(tasks, jobs=1)
        assert [r.digest() for r, _ in out] == [
            r.digest() for r, _ in reference
        ]

    def test_degraded_mode_still_applies_capture_retry_policy(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_SPAWN_FAILURES", 1)
        tasks = [SweepTask("doomed", _quick_experiment(max_events=500, seed=4))]
        out = _supervised(tasks, on_error="capture", max_retries=1)
        (result, failure) = out[0]
        assert result is None
        assert failure.seeds_tried == (4, 4 + RETRY_SEED_STRIDE)


class TestOneRetryKnob:
    def test_max_retries_bounds_supervised_seed_bumps(self):
        """``max_retries`` is the one seed-bump knob on every backend."""
        tasks = [SweepTask("doomed", _quick_experiment(max_events=500, seed=6))]
        pairs = _supervised(tasks, on_error="capture", max_retries=0)
        (_, failure) = pairs[0]
        assert failure.seeds_tried == (6,)


#: A timeout no quick cell reaches; at the default ``jobs`` it alone puts
#: the cells in one supervised worker.
_GENEROUS_TIMEOUT = 120.0


class TestSweepPlumbing:
    """A timeout reaches the supervisor through every entry point, and
    the supervised results match the inline ones."""

    def test_grid_supervised_matches_serial(self):
        from repro.harness.factories import coupled_factory
        from repro.harness.sweep import run_coexistence_grid

        kwargs = dict(
            links_mbps=[10], rtts_ms=[10, 20], duration=2.0, warmup=0.5, seed=3
        )
        serial = run_coexistence_grid(coupled_factory(), **kwargs)
        supervised = run_coexistence_grid(
            coupled_factory(), task_timeout=_GENEROUS_TIMEOUT, **kwargs
        )
        assert [c.result.digest() for c in serial] == [
            c.result.digest() for c in supervised
        ]
        assert supervised.recovery is not None
        assert supervised.recovery.executed == len(serial)
        assert supervised.recovery.heartbeats > 0
        assert serial.recovery.heartbeats == 0

    def test_mix_sweep_supervised_matches_serial(self):
        from repro.harness.factories import coupled_factory
        from repro.harness.sweep import _mix_tasks

        tasks = [task for _a, _b, task in _mix_tasks(
            coupled_factory(), "dctcp", "cubic", [(1, 1), (2, 1)], 10, 10.0,
            2.0, 0.5, 3,
        )]
        serial = execute_tasks(tasks)
        report = RunReport()
        supervised = execute_tasks(
            tasks, task_timeout=_GENEROUS_TIMEOUT, report=report
        )
        assert [r.digest() for r, _f in serial] == [
            r.digest() for r, _f in supervised
        ]
        assert report.executed == len(tasks)
        assert report.heartbeats > 0

    def test_repeat_supervised_matches_serial(self):
        tasks = _tasks(2)
        serial = execute_tasks(tasks)
        report = RunReport()
        supervised = execute_tasks(
            tasks, heartbeat_timeout=_GENEROUS_TIMEOUT, report=report
        )
        assert [r.sojourn_summary()["mean"] for r, _f in serial] == [
            r.sojourn_summary()["mean"] for r, _f in supervised
        ]
        assert report.executed == 2
        assert report.heartbeats > 0

    def test_repeat_journal_resume(self, tmp_path):
        tasks = _tasks(2)
        journal = tmp_path / "repeat.journal"
        first = execute_tasks(tasks, journal=journal)
        report = RunReport()
        resumed = execute_tasks(tasks, journal=journal, resume=True, report=report)
        assert [r.sojourn_summary()["mean"] for r, _f in first] == [
            r.sojourn_summary()["mean"] for r, _f in resumed
        ]
        assert report.replayed == 2
        assert report.executed == 0

    def test_lambda_factory_rejected_with_guidance(self):
        """Supervision is process-per-task, so experiments must pickle:
        a lambda factory under a timeout alone gets the same actionable
        error as one at jobs=2."""
        from repro.aqm.pi import PiAqm

        exp = _quick_experiment(aqm_factory=lambda rng: PiAqm(rng=rng))
        with pytest.raises(ConfigError) as excinfo:
            execute_tasks([SweepTask("lambda-cell", exp)],
                          task_timeout=_GENEROUS_TIMEOUT)
        assert "pickled" in str(excinfo.value)
        assert "jobs=1" in str(excinfo.value)


class TestRetryBackoff:
    def test_backoff_still_gates_eligibility(self):
        """A cell waiting out its retry backoff is passed over for the
        next eligible one, and nothing is taken while all wait."""
        import time

        from repro.harness.supervisor import _Supervisor

        sup = _Supervisor(
            _tasks(2), [0, 1], n_jobs=1, retries=1, task_timeout=None,
            heartbeat_timeout=None, report=RunReport(), emit=None,
            done=lambda *args: None,
        )
        now = time.monotonic()
        sup.queue[0].not_before = now + 60.0
        assert sup._next_spawn_index(now) == 1
        sup.queue[1].not_before = now + 60.0
        assert sup._next_spawn_index(now) is None


class TestWorkerProtocol:
    """A worker receives a bare task and answers with its frozen result.
    It holds no cache: the parent stores what it sends back."""

    def test_bare_task_in_frozen_result_out(self):
        import multiprocessing

        from repro.harness.frozen import FrozenResult

        [task] = _tasks(1)
        ctx = multiprocessing.get_context(supervisor_module._start_method())
        worker = supervisor_module._start_worker(ctx)
        try:
            worker.conn.send(task)
            message = ("hb",)
            while message[0] == "hb":
                assert worker.conn.poll(60), "worker sent no answer"
                message = worker.conn.recv()
        finally:
            worker.kill()
        kind, result, failure = message
        assert (kind, failure) == ("done", None)
        assert isinstance(result, FrozenResult)
        [(reference, _)] = execute_tasks([task])
        assert result.digest() == reference.digest()

    def test_attempt_task_is_the_declared_task_until_a_seed_bump(self):
        from dataclasses import replace

        from repro.harness.supervisor import _TaskState

        [task] = _tasks(1)
        state = _TaskState(0, task)
        assert state.attempt_task() is task
        state.seed = task.experiment.seed + RETRY_SEED_STRIDE
        bumped = state.attempt_task()
        assert bumped.label == task.label
        assert bumped.experiment.seed == state.seed
        assert replace(bumped.experiment,
                       seed=task.experiment.seed) == task.experiment

    def test_every_store_runs_in_the_calling_process(self, tmp_path):
        """Each ``put`` leaves a marker named by the storing process's
        pid; a supervised run leaves only the parent's."""
        import os

        from repro.harness.cache import ResultCache

        markers = tmp_path / "markers"
        markers.mkdir()

        class MarkingCache(ResultCache):
            def put(self, key, result):
                (markers / f"{os.getpid()}-{key}").touch()
                super().put(key, result)

        cache = MarkingCache(tmp_path / "cache")
        _supervised(_tasks(2), cache=cache)
        pids = [path.name.split("-")[0] for path in sorted(markers.iterdir())]
        assert pids == [str(os.getpid())] * 2
        assert cache.stats.stores == len(cache) == 2
