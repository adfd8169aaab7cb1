"""Every paper claim as one test (the table is repro.harness.claims)."""

import pytest

from repro.harness.claims import CLAIMS


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_claim(claim, claim_runs, measured):
    value = claim.extract(claim_runs[claim.figure])
    measured[claim.id] = value
    assert claim.holds(value), (
        f"{claim.id} ({claim.paper}, {claim.status}): {value!r} is outside "
        f"{claim.band()}"
    )
