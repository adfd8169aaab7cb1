"""Seeded digest locks: the paper's AQMs, adaptive PI and the fault path.

One short seeded cell per paper AQM — PIE, PI and PI2 on the light TCP
scenario, the coupled PI+PI2 AQM under DCTCP/Cubic coexistence and PI2
under unresponsive UDP — plus the adaptive PI AQM alone and under the
fault-injection pipeline (``net/faults``).  Any change that perturbs a
single random draw, a clamp, a unit conversion or a controller update
on one of these paths fails loudly here.

The hashes are over ``ResultMetrics.digest()`` (the same fingerprint the
serial/parallel/cache parity gates compare), serialised with sorted keys.
``random.Random`` (MT19937) and IEEE-754 arithmetic are stable across
platforms and Python versions, so the values are portable.  If a change
*intentionally* alters seeded behaviour, rerun the experiment and update
the constants — in a commit that says so.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.aqm.adaptive import AdaptivePiAqm
from repro.harness import coexistence_pair, light_tcp, run_experiment, tcp_plus_udp
from repro.harness.factories import (
    NamedAqmFactory,
    coupled_factory,
    pi2_factory,
    pi_factory,
    pie_factory,
)
from repro.net.faults import parse_fault_spec

GOLDEN_ADAPTIVE = "4cdd424b5d79dc400098546eb5ee3a441f72dcd73ede0fd86799bcb0e802a0b3"
GOLDEN_ADAPTIVE_FAULTS = (
    "446f119c1940576c0ff1160cbb50f6934e7d254c7b378f50cbe799337c8a4eef"
)


def _digest_hash(result) -> str:
    return hashlib.sha256(
        json.dumps(result.digest(), sort_keys=True).encode()
    ).hexdigest()


#: (cell builder, sha256 of its digest) for each paper AQM at seed 3.
PAPER_AQM_CELLS = {
    "pie": (
        lambda: light_tcp(pie_factory(), duration=4.0, seed=3),
        "641e72c5f5e281dba6eb4f2d96116a9d88ec7df22cc68e400515b700630749a5",
    ),
    "pi": (
        lambda: light_tcp(pi_factory(), duration=4.0, seed=3),
        "19382e18a68dcccb33d6c771674d1e0eeed36d2d032b48597314176da0f936bb",
    ),
    "pi2": (
        lambda: light_tcp(pi2_factory(), duration=4.0, seed=3),
        "9279301df480a4f445e45177ca51a7c184e095cd027b176817f73bfadbc538f9",
    ),
    "coupled": (
        lambda: coexistence_pair(
            coupled_factory(), cc_a="dctcp", cc_b="cubic",
            duration=4.0, warmup=1.0, seed=3,
        ),
        "e62107f602d9d0e332ce28b8b7c27bb92bd5702fb3d886e424c6796665cb9e37",
    ),
    "pi2_udp": (
        lambda: tcp_plus_udp(pi2_factory(), duration=4.0, seed=3),
        "2edd6c49756e1e781b1662d6634621ff337b76e46a3b264981b0df742a0d7047",
    ),
}


@pytest.mark.parametrize("cell", sorted(PAPER_AQM_CELLS))
def test_paper_aqm_digest_locked(cell):
    build, golden = PAPER_AQM_CELLS[cell]
    assert _digest_hash(run_experiment(build())) == golden


def _adaptive_experiment(faults=False):
    exp = light_tcp(NamedAqmFactory(AdaptivePiAqm), duration=4.0, seed=3)
    if faults:
        exp = replace(
            exp,
            faults=(
                parse_fault_spec("burstloss:1.0:0.5"),
                parse_fault_spec("jitter:2.0:1.0"),
            ),
        )
    return exp


def test_adaptive_digest_locked():
    assert _digest_hash(run_experiment(_adaptive_experiment())) == GOLDEN_ADAPTIVE


def test_adaptive_with_faults_digest_locked():
    result = run_experiment(_adaptive_experiment(faults=True))
    assert _digest_hash(result) == GOLDEN_ADAPTIVE_FAULTS


def test_faulted_run_is_run_to_run_deterministic():
    first = run_experiment(_adaptive_experiment(faults=True))
    second = run_experiment(_adaptive_experiment(faults=True))
    assert first.digest() == second.digest()


def test_fallback_stream_matches_historical_seed():
    """default_stream() must stay bit-identical to random.Random(0) —
    the fallback every AQM constructor used before streams were shared."""
    import random

    from repro.sim.random import default_stream

    ours = default_stream()
    historical = random.Random(0)
    assert [ours.random() for _ in range(100)] == [
        historical.random() for _ in range(100)
    ]

