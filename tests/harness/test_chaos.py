"""Chaos tests: SIGKILLed workers, hangs, stalls, poison cells, torn
journals — each asserting the recovery is *bit-exact*.

Every scenario compares the surviving results' digests against a clean
serial run of the same experiments: surviving a crash is only half the
contract, the other half is that recovery changes nothing about the
numbers.

The chaos factories are module-level classes (picklable by reference
under the fork start method) that behave exactly like ``pi2_factory()``
(or the factory they wrap) — so digests are comparable with a plain
run — but inject one fault the first time their flag file can be
claimed.  The flag lives on disk because the fault must fire in a
*worker process* and be visible to the retry that runs in a different
worker.  Faults that kill or freeze the process that builds the AQM
need worker processes, so those tests run at ``jobs=2`` or with a
timeout; at ``jobs <= 1`` without one, cells run in the test process.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.harness import supervisor as supervisor_module
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import pi2_factory
from repro.harness.journal import ResultJournal
from repro.harness.parallel import RunReport, SweepTask, execute_tasks


@pytest.fixture
def quick_backoff(monkeypatch):
    """Short process-level retry backoff, so recoveries take no time."""
    monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 0.05)


class ChaosPi2Factory:
    """Base: delegate to PI2 (or ``inner``), but misbehave once (first
    flag-file claim)."""

    def __init__(self, flag_path, inner=None):
        self.flag_path = str(flag_path)
        self.inner = inner if inner is not None else pi2_factory()

    def _first_time(self) -> bool:
        try:
            open(self.flag_path, "x").close()
        except FileExistsError:
            return False
        return True

    def cache_key(self) -> str:
        # Stable across retries (the flag path is per-test scratch state,
        # not configuration), so journaling and resume work normally.
        return f"chaos:{type(self).__name__}:{self.inner.cache_key()}"

    def chaos(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def __call__(self, rng):
        if self._first_time():
            self.chaos()
        return self.inner(rng)


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
    def test_killed_worker_is_retried_in_place_bit_exact(self, tmp_path,
                                                         quick_backoff):
        tasks = _cells(KillOnceFactory(tmp_path / "kill.flag"))
        report = RunReport()
        out = execute_tasks(tasks, jobs=2, report=report)
        assert [r.digest() for r, _ in out] == _reference_digests()
        kills = [a for a in report.actions if a.action == "retry after killed"]
        assert len(kills) == 1
        assert kills[0].worker is not None and kills[0].worker.startswith("pid:")
        assert any(a.action == "recovered" for a in report.actions)
        assert not report.degraded

    def test_kill_every_attempt_is_a_terminal_failure(self, tmp_path,
                                                      monkeypatch,
                                                      quick_backoff):
        monkeypatch.setattr(supervisor_module, "MAX_TASK_FAILURES", 1)
        tasks = _cells(KillAlwaysFactory(tmp_path / "k.flag"), n=1)
        out = execute_tasks(tasks, jobs=2, on_error="capture")
        (result, failure) = out[0]
        assert result is None
        assert failure.error_type == "WorkerCrashed"
        assert len(failure.attempts) == 2  # original + 1 same-seed retry
        assert all(a.kind == "killed" for a in failure.attempts)
        assert failure.seeds_tried == (1, 1)  # same seed: external cause


def _hang_probe(scratch: str) -> None:
    """Body of :class:`TestKilledWorkerCannotHang`, run in a subprocess.

    SIGKILLs one worker under ``execute_tasks(jobs=2)`` and one under
    ``generate_figure("fig12", jobs=2)`` (this process's registry entry
    wraps each cell's AQM factory in :class:`KillOnceFactory`), then
    prints what came back as one JSON line.
    """
    from repro.harness import figures

    report = RunReport()
    cells = execute_tasks(
        _cells(KillOnceFactory(Path(scratch) / "cells.flag")), jobs=2,
        report=report,
    )
    declare = figures.FIGURES["fig12"]
    flag = Path(scratch) / "figure.flag"

    def fig12_with_one_kill(scale):
        tasks, reduce = declare(scale)
        return [replace(task, experiment=replace(
            task.experiment,
            aqm_factory=KillOnceFactory(flag, task.experiment.aqm_factory),
        )) for task in tasks], reduce

    figures.FIGURES["fig12"] = fig12_with_one_kill
    data = figures.generate_figure("fig12", scale=0.12, jobs=2)
    print(json.dumps({
        "cells": [result.digest_hex() for result, _failure in cells],
        "cell_actions": [action.action for action in report.actions],
        "rows": repr(data.rows),
        "figure_actions": [action.action for action in data.report.actions],
    }))


class TestKilledWorkerCannotHang:
    """A worker SIGKILLed at ``jobs=2``, with no other backend argument,
    costs one same-seed retry: ``execute_tasks`` and ``generate_figure``
    return bit-exact results instead of waiting forever for the lost
    cell.  The body runs in its own session under a timeout, and the
    whole process group is killed on expiry, so a hang fails this test
    instead of stalling the suite."""

    TIMEOUT_S = 120.0

    def test_killed_worker_at_jobs_two_is_retried_not_awaited(self, tmp_path):
        from repro.harness.figures import generate_figure

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(repro.__file__).resolve().parents[1]), str(root),
            env.get("PYTHONPATH"),
        ]))
        probe = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from tests.harness.test_chaos import _hang_probe; "
             "_hang_probe(sys.argv[1])", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=root, start_new_session=True,
        )
        try:
            out, err = probe.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(probe.pid, signal.SIGKILL)
            probe.communicate()
            pytest.fail(f"a killed worker hung the run: no result after "
                        f"{self.TIMEOUT_S:.0f} s")
        assert probe.returncode == 0, err
        seen = json.loads(out.splitlines()[-1])
        clean = execute_tasks(_cells(pi2_factory()), jobs=1)
        assert seen["cells"] == [result.digest_hex() for result, _f in clean]
        assert seen["cell_actions"].count("retry after killed") == 1
        assert seen["rows"] == repr(generate_figure("fig12", scale=0.12).rows)
        assert seen["figure_actions"].count("retry after killed") == 1


class TestSigkillMidGridWithResume:
    def test_interrupted_journaled_sweep_resumes_bit_exact(self, tmp_path,
                                                           quick_backoff):
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
            tasks[:2], jobs=2, journal=journal, report=report,
        )
        assert any(a.action == "retry after killed" for a in report.actions)
        assert report.journal_appends == 2

        resumed_report = RunReport()
        resumed = execute_tasks(
            tasks, jobs=2, journal=journal, resume=True,
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
    def test_hung_worker_is_killed_and_retried_bit_exact(self, tmp_path,
                                                         quick_backoff):
        tasks = _cells(HangOnceFactory(tmp_path / "hang.flag"), n=2)
        report = RunReport()
        out = execute_tasks(tasks, jobs=2, task_timeout=5.0, report=report)
        assert [r.digest() for r, _ in out] == _reference_digests(n=2)
        timeouts = [a for a in report.actions if a.action == "retry after timeout"]
        assert len(timeouts) == 1

    def test_timeout_every_attempt_is_terminal_with_history(self, tmp_path,
                                                            monkeypatch,
                                                            quick_backoff):
        monkeypatch.setattr(supervisor_module, "MAX_TASK_FAILURES", 1)
        tasks = _cells(HangAlwaysFactory(tmp_path / "h.flag"), n=1)
        out = execute_tasks(tasks, on_error="capture", task_timeout=1.0)
        (result, failure) = out[0]
        assert result is None
        assert failure.error_type == "TaskTimeout"
        assert [a.kind for a in failure.attempts] == ["timeout", "timeout"]
        assert failure.attempts[0].backoff_s > 0


class TestHeartbeatStall:
    def test_stopped_worker_detected_by_heartbeat_and_retried(
            self, tmp_path, monkeypatch, quick_backoff):
        monkeypatch.setattr(supervisor_module, "HEARTBEAT_INTERVAL", 0.1)
        tasks = _cells(StallOnceFactory(tmp_path / "stall.flag"), n=2)
        report = RunReport()
        out = execute_tasks(tasks, jobs=2, heartbeat_timeout=1.0, report=report)
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
        out = execute_tasks(tasks, jobs=2, on_error="capture", max_retries=1)
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
        execute_tasks(tasks[:2], jobs=2, journal=journal)
        with open(journal, "ab") as handle:
            handle.write(b"\x99" * 17)  # torn half-record from a "crash"
        report = RunReport()
        resumed = execute_tasks(
            tasks, jobs=2, journal=journal, resume=True, report=report,
        )
        assert report.torn_journal
        assert report.replayed == 2
        assert report.executed == 1
        assert [r.digest() for r, _ in resumed] == _reference_digests(n=3)
        healed = ResultJournal(journal).read()
        assert not healed.torn
        assert len(healed.records) == 3


def _figure_worker(journal_dir: str, jobs, pid_log: str) -> None:
    """Child body for the mid-figure SIGKILL test (module-level so it
    pickles by reference under the fork start method); appends each
    supervised worker's pid to ``pid_log``."""
    from repro.harness.figures import generate_figure

    start = supervisor_module._start_worker

    def logged_start(*args):
        worker = start(*args)
        with open(pid_log, "a") as log:
            log.write(f"{worker.process.pid}\n")
        return worker

    supervisor_module._start_worker = logged_start
    generate_figure("fig12", scale=0.12, journal=journal_dir, jobs=jobs)


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestSigkillMidFigureWithResume:
    def _kill_and_resume(self, tmp_path, jobs):
        """The figure-pipeline tentpole end-to-end: a `repro figure` run
        is SIGKILLed after its first cell lands in the journal; the
        resumed run replays that cell and re-executes only the rest —
        with rows byte-identical to an uninterrupted run.  Workers the
        killed run leaves behind finish their cell and exit, rather than
        blocking forever on a pipe nobody reads."""
        import multiprocessing

        from repro.harness.figures import generate_figure

        journal_dir = tmp_path / "journals"
        journal_path = journal_dir / "fig12.journal"
        pid_log = tmp_path / "worker.pids"
        pid_log.touch()
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_figure_worker,
                            args=(str(journal_dir), jobs, str(pid_log)))
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
        orphans = [int(pid) for pid in pid_log.read_text().split()]
        assert (jobs is None) == (not orphans)
        deadline = time.monotonic() + 60.0
        while any(map(_running, orphans)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, orphans))

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

    def test_killed_supervised_figure_run_resumes_bit_exact(self, tmp_path):
        """Same with the cells in 2 supervised workers: each cell is
        journaled the moment it lands, so the kill loses only unfinished
        cells."""
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
            "--journal", str(journal), "--jobs", "2",
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
