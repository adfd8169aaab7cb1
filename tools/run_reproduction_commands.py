#!/usr/bin/env python
"""Execute every command documented in docs/REPRODUCTION.md.

The reproduction guide's figure-by-figure tables promise that each
listed invocation works as written.  This script keeps that promise
honest in CI: it extracts every backtick-quoted ``python -m repro ...``
or ``... python -m pytest ...`` command from the *tables* of
``docs/REPRODUCTION.md`` (the prose/bash blocks at the end repeat table
commands at larger ``--scale``, so they are skipped) and runs each one,
failing if any exits non-zero.

Usage::

    python tools/run_reproduction_commands.py [--list]

Figure output goes to /dev/null — this checks the commands execute, not
what they print (the claims in ``repro.harness.claims``, run by
``python -m pytest benchmarks -q``, assert the shapes).
A throwaway cache directory is used so CI runs never collide with a
developer's cache.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMAND = re.compile(r"`((?:PYTHONPATH=\S+ )?python -m (?:repro|pytest)[^`]*)`")


def extract_commands(doc: Path):
    """Backtick-quoted repro/pytest commands from the document's tables."""
    commands = []
    for line in doc.read_text(encoding="utf-8").splitlines():
        if not line.lstrip().startswith("|"):
            continue
        for match in COMMAND.finditer(line):
            command = match.group(1).strip()
            if command not in commands:
                commands.append(command)
    return commands


def main(argv) -> int:
    """Run (or with ``--list`` just print) the documented commands."""
    root = Path(__file__).resolve().parents[1]
    doc = root / "docs" / "REPRODUCTION.md"
    commands = extract_commands(doc)
    if not commands:
        print(f"no commands found in {doc} — table format changed?")
        return 1
    if "--list" in argv[1:]:
        print("\n".join(commands))
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-docs-cache-") as cache_dir:
        env["REPRO_CACHE_DIR"] = cache_dir
        for command in commands:
            start = time.perf_counter()
            proc = subprocess.run(
                command,
                shell=True,
                cwd=root,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            wall = time.perf_counter() - start
            status = "ok" if proc.returncode == 0 else f"FAIL ({proc.returncode})"
            print(f"{status:10s} {wall:6.1f}s  {command}")
            if proc.returncode != 0:
                failures += 1
                sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:] + "\n")
    if failures:
        print(f"{failures}/{len(commands)} documented command(s) failed")
        return 1
    print(f"all {len(commands)} documented commands ran clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
