"""Seeded digest locks: the paper's AQMs and adaptive PI.

One short seeded cell per paper AQM — PIE, PI and PI2 on the light TCP
scenario, the coupled PI+PI2 AQM under DCTCP/Cubic coexistence and PI2
under unresponsive UDP — plus the adaptive PI AQM.  Any change that
perturbs a single random draw, a clamp, a unit conversion or a
controller update on one of these paths fails loudly here.

The hashes are over ``ResultMetrics.digest()`` (the same fingerprint the
serial/parallel/cache parity gates compare), serialised with sorted keys.
Each paper-AQM cell also pins the engine's exact counters (events
processed, cancelled events pending, compactions): a change that adds
or removes an event that does nothing leaves the digest alone but moves
these.
``random.Random`` (MT19937) and IEEE-754 arithmetic are stable across
platforms and Python versions, so the values are portable.  If a change
*intentionally* alters seeded behaviour, rerun the experiment and update
the constants — in a commit that says so.
"""

import hashlib
import json

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

GOLDEN_ADAPTIVE = "4cdd424b5d79dc400098546eb5ee3a441f72dcd73ede0fd86799bcb0e802a0b3"


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


#: The engine's ``(events_processed, cancelled_pending, compactions)``
#: at the end of each cell above, from ``result.telemetry``.
PAPER_AQM_ENGINE_COUNTERS = {
    "pie": (5866, 0, 0),
    "pi": (5599, 0, 0),
    "pi2": (7316, 0, 0),
    "coupled": (28468, 0, 0),
    "pi2_udp": (8083, 1, 0),
}


@pytest.mark.parametrize("cell", sorted(PAPER_AQM_CELLS))
def test_paper_aqm_digest_locked(cell):
    build, golden = PAPER_AQM_CELLS[cell]
    result = run_experiment(build())
    assert _digest_hash(result) == golden
    telemetry = result.telemetry
    counters = tuple(
        telemetry[f"engine.{name}"]
        for name in ("events_processed", "cancelled_pending", "compactions")
    )
    assert counters == PAPER_AQM_ENGINE_COUNTERS[cell]


def _adaptive_experiment():
    return light_tcp(NamedAqmFactory(AdaptivePiAqm), duration=4.0, seed=3)


def test_adaptive_digest_locked():
    assert _digest_hash(run_experiment(_adaptive_experiment())) == GOLDEN_ADAPTIVE


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

