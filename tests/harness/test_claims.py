"""The claim table's own consistency, and the analytic claims end to end.

The simulated claims run in ``python -m pytest benchmarks -q``; these
checks are cheap enough for tier 1.
"""

import time

from repro.harness.cache import experiment_cache_key
from repro.harness.claims import CLAIMS, STATUSES, run_claim_figures
from repro.harness.figures import FIGURES


def test_claim_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_claim_names_a_registered_figure():
    assert [c.id for c in CLAIMS if c.figure not in FIGURES] == []


def test_every_status_is_allowed():
    assert [c.id for c in CLAIMS if c.status not in STATUSES] == []


def test_every_band_has_a_bound_and_is_ordered():
    for claim in CLAIMS:
        assert claim.lo is not None or claim.hi is not None, claim.id
        if claim.lo is not None and claim.hi is not None:
            assert claim.lo <= claim.hi, claim.id


def test_every_cell_has_a_cache_key():
    """Claims share cells by key, and only named factories have one."""
    for name, generate in FIGURES.items():
        tasks, _reduce = generate(1.0)
        for task in tasks:
            assert experiment_cache_key(task.experiment) is not None, (name, task.label)


def test_band_is_strict_and_rejects_nan():
    claim = next(c for c in CLAIMS if c.lo is not None and c.hi is not None)
    assert claim.holds((claim.lo + claim.hi) / 2)
    assert not claim.holds(claim.lo) and not claim.holds(claim.hi)
    assert not claim.holds(float("nan"))


def test_analytic_claims_hold_end_to_end():
    analytic = [c for c in CLAIMS if c.figure in ("fig04", "fig05", "fig07")]
    assert len(analytic) >= 10
    started = time.monotonic()
    runs, report = run_claim_figures(analytic)
    for claim in analytic:
        value = claim.extract(runs[claim.figure])
        assert claim.holds(value), (claim.id, value, claim.band())
    assert report.executed == 0
    assert time.monotonic() - started < 1.0
