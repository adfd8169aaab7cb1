"""Crash-safe, append-only journal of completed sweep cells.

A 5×5 coexistence grid interrupted at minute 40 — Ctrl-C, an OOM-killed
parent, a power cut — used to discard every finished cell.  This module
gives sweeps a write-ahead journal: as each cell completes, its frozen
result (:class:`~repro.harness.frozen.FrozenResult`) is appended to a
single journal file and **fsync'd before the sweep moves on**, so the set
of durable results always trails execution by at most one record.  A
resumed sweep (``resume=True`` on the sweep APIs, ``--resume`` on the
CLI) replays journaled cells and re-executes only the remainder —
bit-exactly reproducing what an uninterrupted run would have returned,
because replayed cells *are* the results the interrupted run produced
and the remainder re-runs under the same seeds.

Keying
------
Records are keyed by :func:`~repro.harness.cache.experiment_cache_key` —
the same config + source-code fingerprint the on-disk result cache uses.
Any edit to the simulator or to the sweep's configuration changes every
key, so a stale journal silently replays **nothing** and the sweep simply
re-executes; a journal can never leak results from different code or
configuration into a resumed run.  Cells whose experiment is uncacheable
(lambda/closure AQM factories have no stable identity) are not journaled
and are re-executed on resume.

Torn records
------------
A crash can interrupt an append, leaving a torn final record.  Each
record carries its payload length and a SHA-256 checksum; readers stop at
the first incomplete or corrupt record and report the intact prefix
(:attr:`JournalReplay.torn`).  Re-opening a torn journal for writing
truncates the tail back to the last intact record before appending, so
one crash never poisons subsequent appends.

The file is append-only: a later run that writes the same journal
without ``resume`` appends its records after the earlier ones, and
replay keeps the **latest** record per key.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import JournalError
from repro.harness.frozen import FrozenResult

__all__ = [
    "JOURNAL_MAGIC",
    "JOURNAL_SCHEMA",
    "JournalRecord",
    "JournalReplay",
    "ResultJournal",
]

#: File magic: identifies a result journal and its framing version.
JOURNAL_MAGIC = b"REPRO-JOURNAL-v1\n"

#: Bumped whenever the record payload layout changes.
JOURNAL_SCHEMA = 1

#: Per-record header: little-endian payload length + SHA-256 of payload.
_LEN_STRUCT = struct.Struct("<Q")
_HEADER_SIZE = _LEN_STRUCT.size + hashlib.sha256().digest_size


@dataclass(frozen=True)
class JournalRecord:
    """One journaled cell: its key, display label, digest and result."""

    key: str
    label: str
    digest: str
    result: FrozenResult


@dataclass
class JournalReplay:
    """Everything a read pass recovered from a journal file.

    ``torn`` is True when the file ended in an incomplete or corrupt
    record (the normal aftermath of a crash mid-append); ``valid_bytes``
    is the offset of the last intact record's end — the write position a
    re-opened journal truncates back to.
    """

    records: List[JournalRecord] = field(default_factory=list)
    torn: bool = False
    valid_bytes: int = 0
    discarded_bytes: int = 0

    def replay_map(self) -> Dict[str, FrozenResult]:
        """Key → result map for resume (later records win on duplicates)."""
        return {record.key: record.result for record in self.records}


class ResultJournal:
    """Append-only, fsync'd store of completed cells in one file.

    The parent sweep process is the only writer; workers return frozen
    results over their pipes and the parent appends them here as
    they arrive.  Every write is fsync'd: the magic, each record and
    close.
    """

    def __init__(self, path: os.PathLike | str):
        self.path = Path(path)
        self.appended = 0
        self._handle: Optional[io.BufferedWriter] = None

    # -- writing ---------------------------------------------------------
    def append(self, key: str, label: str, result: FrozenResult) -> None:
        """Durably append one completed cell (length + checksum framing)."""
        if not key:
            raise JournalError("journal records need a non-empty key")
        payload = self._encode(key, label, result)
        handle = self._writer()
        handle.write(_LEN_STRUCT.pack(len(payload)))
        handle.write(hashlib.sha256(payload).digest())
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
        self.appended += 1

    @staticmethod
    def _encode(key: str, label: str, result: FrozenResult) -> bytes:
        """Pickle one record's payload (framing is added by the caller)."""
        return pickle.dumps(
            {
                "schema": JOURNAL_SCHEMA,
                "key": key,
                "label": label,
                "digest": result.digest_hex(),
                "result": result,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _writer(self) -> io.BufferedWriter:
        """Open (once) for appending, truncating any torn tail first."""
        if self._handle is None:
            valid = self.read().valid_bytes
            if valid:
                self._handle = self.path.open("r+b")
                self._handle.seek(valid)
                self._handle.truncate(valid)
            else:  # no file, or one torn before its magic was complete
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("wb")
                self._handle.write(JOURNAL_MAGIC)
                self._handle.flush()
                os.fsync(self._handle.fileno())
        return self._handle

    def close(self) -> None:
        """Flush and close the write handle (reads reopen independently)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reading ---------------------------------------------------------
    def read(self) -> JournalReplay:
        """Scan the journal, returning every intact record.

        A missing file reads as an empty journal (a first run with
        ``resume=True`` is a plain run), and so does one torn while it
        was being created (empty, or a partial magic).  A file that is
        not a journal at all raises :class:`~repro.errors.JournalError`;
        a torn tail does not — the intact prefix comes back with
        ``torn=True``.
        """
        replay = JournalReplay()
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return replay
        if JOURNAL_MAGIC.startswith(data):
            # Empty or a partial magic: the file was being created when
            # the writer crashed (or this read raced its creation).
            replay.torn = bool(data)
            replay.discarded_bytes = len(data)
            return replay
        if not data.startswith(JOURNAL_MAGIC):
            raise JournalError(
                f"{self.path} is not a result journal "
                f"(bad magic; expected {JOURNAL_MAGIC!r})"
            )
        offset = len(JOURNAL_MAGIC)
        replay.valid_bytes = offset
        while offset < len(data):
            record, end = self._read_record(data, offset)
            if record is None:
                replay.torn = True
                replay.discarded_bytes = len(data) - offset
                break
            replay.records.append(record)
            replay.valid_bytes = end
            offset = end
        return replay

    @staticmethod
    def _read_record(
        data: bytes, offset: int
    ) -> Tuple[Optional[JournalRecord], int]:
        """Decode one record at ``offset``; (None, offset) when torn."""
        header_end = offset + _HEADER_SIZE
        if header_end > len(data):
            return None, offset
        (length,) = _LEN_STRUCT.unpack_from(data, offset)
        checksum = data[offset + _LEN_STRUCT.size: header_end]
        payload_end = header_end + length
        if payload_end > len(data):
            return None, offset
        payload = data[header_end:payload_end]
        if hashlib.sha256(payload).digest() != checksum:
            return None, offset
        try:
            entry = pickle.loads(payload)
            record = JournalRecord(
                key=entry["key"],
                label=entry["label"],
                digest=entry["digest"],
                result=entry["result"],
            )
        except Exception:
            # Checksum matched but the payload does not decode (schema
            # drift, version skew): treat as the end of usable history.
            return None, offset
        if entry.get("schema") != JOURNAL_SCHEMA:
            return None, offset
        return record, payload_end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ResultJournal {self.path} appended={self.appended}>"
