"""Chaos tests: SIGKILLed workers, hangs, stalls, poison cells, torn
journals — each asserting the recovery is *bit-exact*.

Every scenario compares the surviving results' digests against a clean
serial run of the same experiments: surviving a crash is only half the
contract, the other half is that recovery changes nothing about the
numbers.

The chaos factories are module-level classes (picklable by reference
under the fork start method) that behave exactly like ``pi2_factory()``
— so digests are comparable with a plain PI2 run — but inject one fault
the first time their flag file can be claimed.  The flag lives on disk
because the fault must fire in a *worker process* and be visible to the
retry that runs in a different worker.
"""

import os
import signal
import time

import pytest

from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import pi2_factory
from repro.harness.journal import ResultJournal
from repro.harness.parallel import RunReport, SweepTask, execute_tasks
from repro.harness.supervisor import SupervisorConfig


class ChaosPi2Factory:
    """Base: delegate to PI2, but misbehave once (first flag-file claim)."""

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def _first_time(self) -> bool:
        try:
            open(self.flag_path, "x").close()
        except FileExistsError:
            return False
        return True

    def cache_key(self) -> str:
        # Stable across retries (the flag path is per-test scratch state,
        # not configuration), so journaling and resume work normally.
        return f"chaos:{type(self).__name__}"

    def chaos(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def __call__(self, rng):
        if self._first_time():
            self.chaos()
        return pi2_factory()(rng)


class KillOnceFactory(ChaosPi2Factory):
    """SIGKILL the worker mid-task, once — the OOM-killer scenario."""

    def chaos(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


class HangOnceFactory(ChaosPi2Factory):
    """Hang the worker far past any timeout, once."""

    def chaos(self) -> None:
        time.sleep(1000.0)


class StallOnceFactory(ChaosPi2Factory):
    """Freeze the worker (SIGSTOP), once: alive but silent — the case
    only heartbeat monitoring can catch."""

    def chaos(self) -> None:
        os.kill(os.getpid(), signal.SIGSTOP)


class KillAlwaysFactory(KillOnceFactory):
    """SIGKILL on *every* construction: exercises terminal crash failure."""

    def _first_time(self) -> bool:
        return True


class HangAlwaysFactory(HangOnceFactory):
    """Hang on *every* construction: exercises terminal timeout failure."""

    def _first_time(self) -> bool:
        return True


def _cells(factory, n=3, **overrides):
    defaults = dict(
        capacity_bps=10e6,
        duration=2.0,
        warmup=0.5,
        flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
    )
    defaults.update(overrides)
    return [
        SweepTask(f"cell-{seed}", Experiment(
            aqm_factory=factory, seed=seed, **defaults
        ))
        for seed in range(1, n + 1)
    ]


def _reference_digests(n=3, **overrides):
    """Digests of the same cells run clean, serial, with plain PI2."""
    plain = execute_tasks(_cells(pi2_factory(), n=n, **overrides), jobs=1)
    return [result.digest() for result, _failure in plain]


class TestSigkillRecovery:
    def test_killed_worker_is_retried_in_place_bit_exact(self, tmp_path):
        tasks = _cells(KillOnceFactory(tmp_path / "kill.flag"))
        report = RunReport()
        out = execute_tasks(
            tasks, jobs=2,
            supervisor=SupervisorConfig(backoff_base=0.05),
            report=report,
        )
        assert [r.digest() for r, _ in out] == _reference_digests()
        kills = [a for a in report.actions if a.action == "retry after killed"]
        assert len(kills) == 1
        assert kills[0].worker is not None and kills[0].worker.startswith("pid:")
        assert any(a.action == "recovered" for a in report.actions)
        assert not report.degraded

    def test_kill_every_attempt_is_a_terminal_failure(self, tmp_path):
        tasks = _cells(KillAlwaysFactory(tmp_path / "k.flag"), n=1)
        out = execute_tasks(
            tasks, on_error="capture",
            supervisor=SupervisorConfig(max_task_failures=1, backoff_base=0.05),
        )
        (result, failure) = out[0]
        assert result is None
        assert failure.error_type == "WorkerCrashed"
        assert len(failure.attempts) == 2  # original + 1 same-seed retry
        assert all(a.kind == "killed" for a in failure.attempts)
        assert failure.seeds_tried == (1, 1)  # same seed: external cause


class TestSigkillMidGridWithResume:
    def test_interrupted_journaled_sweep_resumes_bit_exact(self, tmp_path):
        """The tentpole scenario end-to-end: a worker is SIGKILLed during
        a journaled sweep, the sweep is interrupted after two cells, and
        the resumed run replays the journal and re-executes only the
        remainder — with digests identical to a clean uninterrupted run.
        """
        journal = tmp_path / "grid.journal"
        factory = KillOnceFactory(tmp_path / "kill.flag")
        tasks = _cells(factory, n=4)

        report = RunReport()
        first = execute_tasks(
            tasks[:2], jobs=2, journal=journal,
            supervisor=SupervisorConfig(backoff_base=0.05),
            report=report,
        )
        assert any(a.action == "retry after killed" for a in report.actions)
        assert report.journal_appends == 2

        resumed_report = RunReport()
        resumed = execute_tasks(
            tasks, jobs=2, journal=journal, resume=True,
            supervisor=SupervisorConfig(backoff_base=0.05),
            report=resumed_report,
        )
        assert resumed_report.replayed == 2   # journal did its job
        assert resumed_report.executed == 2   # only the remainder ran
        reference = _reference_digests(n=4)
        assert [r.digest() for r, _ in resumed] == reference
        assert [r.digest() for r, _ in first] == reference[:2]
        # The journal now holds all four cells, cleanly framed.
        replay = ResultJournal(journal).read()
        assert len(replay.records) == 4
        assert not replay.torn


class TestTimeoutExpiry:
    def test_hung_worker_is_killed_and_retried_bit_exact(self, tmp_path):
        tasks = _cells(HangOnceFactory(tmp_path / "hang.flag"), n=2)
        report = RunReport()
        out = execute_tasks(
            tasks, jobs=2,
            supervisor=SupervisorConfig(task_timeout=5.0, backoff_base=0.05),
            report=report,
        )
        assert [r.digest() for r, _ in out] == _reference_digests(n=2)
        timeouts = [a for a in report.actions if a.action == "retry after timeout"]
        assert len(timeouts) == 1

    def test_timeout_every_attempt_is_terminal_with_history(self, tmp_path):
        tasks = _cells(HangAlwaysFactory(tmp_path / "h.flag"), n=1)
        out = execute_tasks(
            tasks, on_error="capture",
            supervisor=SupervisorConfig(
                task_timeout=1.0, max_task_failures=1, backoff_base=0.05
            ),
        )
        (result, failure) = out[0]
        assert result is None
        assert failure.error_type == "TaskTimeout"
        assert [a.kind for a in failure.attempts] == ["timeout", "timeout"]
        assert failure.attempts[0].backoff_s > 0


class TestHeartbeatStall:
    def test_stopped_worker_detected_by_heartbeat_and_retried(self, tmp_path):
        tasks = _cells(StallOnceFactory(tmp_path / "stall.flag"), n=2)
        report = RunReport()
        out = execute_tasks(
            tasks, jobs=2,
            supervisor=SupervisorConfig(
                heartbeat_interval=0.1,
                heartbeat_timeout=1.0,
                backoff_base=0.05,
            ),
            report=report,
        )
        assert [r.digest() for r, _ in out] == _reference_digests(n=2)
        stalls = [a for a in report.actions if a.action == "retry after stalled"]
        assert len(stalls) == 1
        assert report.heartbeats > 0


class TestPoisonTask:
    def test_poison_cell_fails_alone_others_bit_exact(self):
        """One cell that deterministically exhausts its event budget must
        not contaminate its siblings, and its failure must carry the
        whole seed-bump history."""
        good = _cells(pi2_factory(), n=2)
        poison = SweepTask("poison", Experiment(
            aqm_factory=pi2_factory(),
            capacity_bps=10e6, duration=2.0, warmup=0.5, seed=9,
            max_events=500,
            flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
        ))
        tasks = [good[0], poison, good[1]]
        out = execute_tasks(
            tasks, jobs=2, on_error="capture", max_retries=1,
            supervisor=SupervisorConfig(),
        )
        reference = _reference_digests(n=2)
        assert out[0][0].digest() == reference[0]
        assert out[2][0].digest() == reference[1]
        failure = out[1][1]
        assert failure.error_type == "WatchdogExceeded"
        assert len(failure.attempts) == 2
        assert {a.kind for a in failure.attempts} == {"exception"}


class TestTornJournalRecovery:
    def test_resume_from_torn_journal_is_bit_exact(self, tmp_path):
        """A crash mid-append leaves a torn record; the resume must use
        the intact prefix, re-run the rest, and heal the journal file."""
        journal = tmp_path / "grid.journal"
        tasks = _cells(pi2_factory(), n=3)
        execute_tasks(tasks[:2], journal=journal, supervisor=SupervisorConfig())
        with open(journal, "ab") as handle:
            handle.write(b"\x99" * 17)  # torn half-record from a "crash"
        report = RunReport()
        resumed = execute_tasks(
            tasks, journal=journal, resume=True, report=report,
            supervisor=SupervisorConfig(),
        )
        assert report.torn_journal
        assert report.replayed == 2
        assert report.executed == 1
        assert [r.digest() for r, _ in resumed] == _reference_digests(n=3)
        healed = ResultJournal(journal).read()
        assert not healed.torn
        assert len(healed.records) == 3


def _figure_worker(journal_dir: str, jobs) -> None:
    """Child body for the mid-figure SIGKILL test (module-level so it
    pickles by reference under the fork start method)."""
    from repro.harness.figures import generate_figure

    generate_figure("fig12", scale=0.12, journal=journal_dir, jobs=jobs)


class TestSigkillMidFigureWithResume:
    def _kill_and_resume(self, tmp_path, jobs):
        """The figure-pipeline tentpole end-to-end: a `repro figure` run
        is SIGKILLed after its first cell lands in the journal; the
        resumed run replays that cell and re-executes only the rest —
        with rows byte-identical to an uninterrupted run."""
        import multiprocessing

        from repro.harness.figures import generate_figure

        journal_dir = tmp_path / "journals"
        journal_path = journal_dir / "fig12.journal"
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_figure_worker,
                            args=(str(journal_dir), jobs))
        child.start()
        deadline = time.monotonic() + 60.0
        try:
            # Kill as soon as the first cell is durable, so the second
            # is (almost always) still simulating.
            while time.monotonic() < deadline:
                if (journal_path.exists()
                        and ResultJournal(journal_path).read().records):
                    break
                time.sleep(0.005)
            else:
                raise AssertionError("no journal record within 60s")
        finally:
            child.kill()
            child.join(timeout=30.0)
        assert child.exitcode is not None

        replay = ResultJournal(journal_path).read()
        survived = len(replay.records)
        assert survived >= 1

        clean = generate_figure("fig12", scale=0.12)
        resumed = generate_figure(
            "fig12", scale=0.12, journal=journal_dir, resume=True, jobs=jobs
        )
        assert resumed.rows == clean.rows
        assert resumed.report.replayed == survived
        assert resumed.report.replayed + resumed.report.executed == 2
        # The journal now holds both cells, cleanly framed (a torn tail
        # from the kill was truncated by the resume's first append).
        healed = ResultJournal(journal_path).read()
        assert len(healed.records) == 2
        assert not healed.torn

    def test_killed_figure_run_resumes_bit_exact(self, tmp_path):
        self._kill_and_resume(tmp_path, jobs=None)

    def test_killed_pooled_figure_run_resumes_bit_exact(self, tmp_path):
        """Same with the cells on a 2-worker pool: each cell is journaled
        the moment it lands, so the kill loses only unfinished cells."""
        self._kill_and_resume(tmp_path, jobs=2)


class TestCliFigureChaosFree:
    def test_cli_figure_journal_resume(self, tmp_path):
        """`repro figure --journal ... --resume` round-trips through the
        CLI surface: the second invocation replays both cells."""
        from io import StringIO

        from repro.cli import main

        argv = [
            "figure", "fig12", "--scale", "0.12", "--no-cache",
            "--journal", str(tmp_path / "journals"),
        ]
        out = StringIO()
        assert main(argv, out=out) == 0
        assert "journal_appends=2" in out.getvalue()
        out2 = StringIO()
        assert main(argv + ["--resume"], out=out2) == 0
        assert "replayed=2" in out2.getvalue()
        assert out2.getvalue().split("\n")[:-2] == out.getvalue().split("\n")[:-2]


class TestCliGridChaosFree:
    def test_cli_grid_supervised_journal_resume(self, tmp_path):
        """`repro grid --journal ... --resume` round-trips through the
        CLI surface: second invocation replays every cell."""
        from io import StringIO

        from repro.cli import main

        journal = tmp_path / "cli.journal"
        argv = [
            "grid", "--aqm", "pi2", "--links", "4", "--rtts", "5,10",
            "--duration", "2", "--no-cache",
            "--journal", str(journal), "--supervised",
        ]
        out = StringIO()
        assert main(argv, out=out) == 0
        assert "supervised:" in out.getvalue()
        out2 = StringIO()
        assert main(argv + ["--resume"], out=out2) == 0
        assert "replayed=2" in out2.getvalue()


@pytest.mark.parametrize("chaos_cls", [KillOnceFactory, HangOnceFactory])
def test_chaos_factories_are_picklable(tmp_path, chaos_cls):
    import pickle

    factory = chaos_cls(tmp_path / "f.flag")
    assert pickle.loads(pickle.dumps(factory)).flag_path == factory.flag_path
