"""Result journal: framing, torn-tail recovery, truncate-on-reopen.

The journal's contract is narrow but hard: every record that ``append``
returned from is durable and readable; a crash mid-append costs at most
the record being written (the intact prefix always survives); and a
journal written by different code or schema replays nothing rather than
something wrong.  Its cost is pinned by counting: a run of N cells makes
N appends, N + 2 fsyncs and one read, on every backend.
"""

import os
import pickle

import pytest

from repro.errors import JournalError
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import pi2_factory
from repro.harness.figures import generate_figure
from repro.harness.frozen import freeze_result
from repro.harness.journal import (
    JOURNAL_MAGIC,
    JournalReplay,
    ResultJournal,
)
from repro.harness.parallel import SweepTask, execute_tasks
from repro.harness.scenarios import light_tcp


@pytest.fixture(scope="module")
def frozen_result():
    """One tiny real FrozenResult shared by every test in the module."""
    from repro.harness.experiment import run_experiment

    exp = Experiment(
        aqm_factory=pi2_factory(),
        capacity_bps=10e6,
        duration=1.5,
        warmup=0.5,
        flows=[FlowGroup(cc="reno", count=1, rtt=0.02)],
    )
    return freeze_result(run_experiment(exp))


class TestRoundTrip:
    def test_append_then_read(self, tmp_path, frozen_result):
        path = tmp_path / "j.journal"
        with ResultJournal(path) as journal:
            journal.append("key-a", "cell a", frozen_result)
            journal.append("key-b", "cell b", frozen_result)
            assert journal.appended == 2
        replay = ResultJournal(path).read()
        assert not replay.torn
        assert [r.key for r in replay.records] == ["key-a", "key-b"]
        assert [r.label for r in replay.records] == ["cell a", "cell b"]
        for record in replay.records:
            assert record.digest == frozen_result.digest_hex()
            assert record.result.digest() == frozen_result.digest()

    def test_replay_map_later_records_win(self, tmp_path, frozen_result):
        path = tmp_path / "j.journal"
        with ResultJournal(path) as journal:
            journal.append("key", "first", frozen_result)
            journal.append("key", "second", frozen_result)
        replay = ResultJournal(path).read()
        assert len(replay.records) == 2
        assert set(replay.replay_map()) == {"key"}

    def test_missing_file_reads_empty(self, tmp_path):
        replay = ResultJournal(tmp_path / "absent.journal").read()
        assert replay == JournalReplay()

    def test_empty_key_rejected(self, tmp_path, frozen_result):
        with ResultJournal(tmp_path / "j.journal") as journal:
            with pytest.raises(JournalError):
                journal.append("", "label", frozen_result)


class TestTornRecords:
    def test_torn_tail_preserves_prefix(self, tmp_path, frozen_result):
        path = tmp_path / "j.journal"
        with ResultJournal(path) as journal:
            journal.append("key-a", "a", frozen_result)
            journal.append("key-b", "b", frozen_result)
        intact = path.stat().st_size
        with path.open("ab") as handle:
            handle.write(b"\x40\x00\x00\x00\x00\x00\x00\x00partial")
        replay = ResultJournal(path).read()
        assert replay.torn
        assert [r.key for r in replay.records] == ["key-a", "key-b"]
        assert replay.valid_bytes == intact
        assert replay.discarded_bytes == path.stat().st_size - intact

    def test_reopen_truncates_torn_tail_then_appends(
        self, tmp_path, frozen_result
    ):
        path = tmp_path / "j.journal"
        with ResultJournal(path) as journal:
            journal.append("key-a", "a", frozen_result)
        with path.open("ab") as handle:
            handle.write(b"torn garbage that is not a full record")
        with ResultJournal(path) as journal:
            journal.append("key-b", "b", frozen_result)
        replay = ResultJournal(path).read()
        assert not replay.torn
        assert [r.key for r in replay.records] == ["key-a", "key-b"]

    def test_checksum_mismatch_stops_replay(self, tmp_path, frozen_result):
        path = tmp_path / "j.journal"
        with ResultJournal(path) as journal:
            journal.append("key-a", "a", frozen_result)
            journal.append("key-b", "b", frozen_result)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the first record (just past its header).
        data[len(JOURNAL_MAGIC) + 8 + 32 + 5] ^= 0xFF
        path.write_bytes(bytes(data))
        replay = ResultJournal(path).read()
        assert replay.torn
        assert replay.records == []

    def test_wrong_schema_record_is_unusable(self, tmp_path, frozen_result):
        import hashlib
        import struct

        path = tmp_path / "j.journal"
        with ResultJournal(path) as journal:
            journal.append("key-a", "a", frozen_result)
        payload = pickle.dumps(
            {"schema": 999, "key": "k", "label": "l",
             "digest": "d", "result": frozen_result}
        )
        with path.open("ab") as handle:
            handle.write(struct.pack("<Q", len(payload)))
            handle.write(hashlib.sha256(payload).digest())
            handle.write(payload)
        replay = ResultJournal(path).read()
        assert replay.torn
        assert [r.key for r in replay.records] == ["key-a"]


class TestBadFiles:
    def test_non_journal_file_raises(self, tmp_path):
        path = tmp_path / "not-a-journal"
        path.write_bytes(b"just some text, definitely not " + JOURNAL_MAGIC)
        with pytest.raises(JournalError):
            ResultJournal(path).read()

    @pytest.mark.parametrize("head", [b"", JOURNAL_MAGIC[:5]])
    def test_file_torn_at_creation_reads_empty_then_appends(
        self, tmp_path, frozen_result, head
    ):
        """A crash between creating the file and completing its magic
        (or a reader racing that moment) must not look like a foreign
        file: it reads as empty, and the next append rewrites it."""
        path = tmp_path / "new.journal"
        path.write_bytes(head)
        replay = ResultJournal(path).read()
        assert replay.records == [] and replay.torn == bool(head)
        with ResultJournal(path) as journal:
            journal.append("key", "label", frozen_result)
        assert [r.key for r in ResultJournal(path).read().records] == ["key"]

    def test_parent_directories_created(self, tmp_path, frozen_result):
        path = tmp_path / "deep" / "nested" / "j.journal"
        with ResultJournal(path) as journal:
            journal.append("key", "label", frozen_result)
        assert len(ResultJournal(path).read().records) == 1


class TestJournalCost:
    """What journaling a run of N cells costs, counted rather than timed:
    N appends, N + 2 fsyncs (the magic, one per record, close), one read
    (on open), and a file of exactly the magic plus N framed records.
    A cell that re-scans, rewrites or double-fsyncs the journal fails
    here on every backend, however fast the disk."""

    @pytest.fixture
    def journal_io(self, monkeypatch):
        """Count journal appends (with their arguments), reads and fsyncs."""
        counts = {"appends": [], "reads": 0, "fsyncs": 0}
        append, read, fsync = ResultJournal.append, ResultJournal.read, os.fsync

        def counting_append(journal, key, label, result):
            counts["appends"].append((key, label, result))
            return append(journal, key, label, result)

        def counting_read(journal):
            counts["reads"] += 1
            return read(journal)

        def counting_fsync(fd):
            counts["fsyncs"] += 1
            return fsync(fd)

        monkeypatch.setattr(ResultJournal, "append", counting_append)
        monkeypatch.setattr(ResultJournal, "read", counting_read)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        return counts

    @staticmethod
    def _assert_cost(counts, path, cells):
        assert len(counts["appends"]) == cells
        assert counts["fsyncs"] == cells + 2
        assert counts["reads"] == 1
        # Each record: 8-byte length + 32-byte SHA-256 + payload.
        records = sum(40 + len(ResultJournal._encode(*args))
                      for args in counts["appends"])
        assert path.stat().st_size == len(JOURNAL_MAGIC) + records

    @pytest.mark.parametrize("backend", ["inline", "supervised"])
    def test_cells_through_execute_tasks(self, tmp_path, journal_io, backend):
        tasks = [SweepTask(f"light-{seed}",
                           light_tcp(pi2_factory(), duration=2.0, seed=seed))
                 for seed in (1, 2, 3)]
        jobs = 2 if backend == "supervised" else None
        path = tmp_path / "cells.journal"
        pairs = execute_tasks(tasks, journal=path, jobs=jobs)
        assert all(failure is None for _result, failure in pairs)
        self._assert_cost(journal_io, path, cells=3)

    def test_figure_run(self, tmp_path, journal_io):
        data = generate_figure("fig12", scale=0.1, journal=tmp_path)
        assert data.report.journal_appends == 2
        self._assert_cost(journal_io, tmp_path / "fig12.journal", cells=2)
