"""The paper-claim suite: ``python -m pytest benchmarks -q``.

One session runs every figure that the selected claims of
:data:`repro.harness.claims.CLAIMS` read (all of them unless ``-k``
narrows the selection), at scale 1: all their cells in one
``execute_tasks`` call with one worker per CPU, each distinct cell
once.  Each claim is then one test asserting that its value lies in its
band.  The session ends with a table of every measured value next to
its band, the paper's value and the claim's status, and the cell count
and wall time of the run.
"""

from __future__ import annotations

import time

import pytest

from repro.harness.claims import CLAIMS, run_claim_figures

#: Per-session record for the summary: the run's report and wall time,
#: and ``{claim id: value}`` as the tests measure them.
_SESSION = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def claim_runs(request):
    """``{figure: FigureRun}`` for every selected claim's figure, run once."""
    selected = [item.callspec.params["claim"] for item in request.session.items
                if hasattr(item, "callspec") and "claim" in item.callspec.params]
    started = time.monotonic()
    runs, report = run_claim_figures(selected)
    request.config.stash[_SESSION] = {
        "report": report, "seconds": time.monotonic() - started, "measured": {},
    }
    return runs


@pytest.fixture(scope="session")
def measured(request, claim_runs):
    """``{claim id: value}``, filled by the tests for the summary table."""
    return request.config.stash[_SESSION]["measured"]


def pytest_terminal_summary(terminalreporter, config):
    session = config.stash.get(_SESSION, None)
    if session is None:
        return
    write = terminalreporter.write_line
    terminalreporter.section("paper claims")
    for claim in CLAIMS:
        if claim.id in session["measured"]:
            value = session["measured"][claim.id]
            paper = "" if claim.paper_value is None else f"{claim.paper_value:g}"
            write(f"{claim.id:<46} {value:>11.4g}  {claim.band():<22} "
                  f"{paper:>6}  {claim.status}")
    write(f"cells: {session['report'].summary()} in {session['seconds']:.1f} s")
