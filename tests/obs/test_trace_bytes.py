"""Trace bytes are pinned: five short traced cells hash to fixed sha256s.

The JSONL line encoding is part of trace schema 1, and most lines of a
trace are ``aqm_decision`` records that ``install_aqm_tracer`` writes as
one formatted line instead of through the JSON encoder.  The digests
below were recorded before the hook formatted any line itself (the
first two) or before it cached its ``p`` and ``t`` texts (the other
three), so a trace that drifts from ``json.dumps(record,
sort_keys=True, default=str)`` by one byte fails here.  Between them the
cells record ``pass``, ``drop`` and ``mark`` verdicts on ``NOT_ECT``,
``ECT0`` and ``ECT1`` packets, plus ``aqm_update`` and ``engine_epoch``
records.  PI2, the coupled AQM, PIE and PI have a ``controller``, so the
hook rebuilds ``p``'s text only when ``controller.p`` is rebound; RED has
none (and no update timer), so it reads ``probability`` per record.
"""

import hashlib
import json

import pytest

from repro.aqm.red import RedAqm
from repro.harness import coexistence_pair, run_experiment, tcp_plus_udp
from repro.harness.factories import (
    NamedAqmFactory,
    coupled_factory,
    pi2_factory,
    pi_factory,
    pie_factory,
)
from repro.obs import JsonlTracer

ALL_EVENTS = {"aqm_decision", "aqm_update", "engine_epoch"}
DROPPED_UDP = {("pass", "NOT_ECT"), ("drop", "NOT_ECT")}

#: name -> (experiment builder, records, event types, (verdict, ecn)
#: pairs, sha256)
PINNED = {
    # PI2 drops the unresponsive UDP flows' NOT_ECT packets.
    "tcp_plus_udp_pi2": (
        lambda: tcp_plus_udp(pi2_factory(), duration=3.0, seed=1),
        3516,
        ALL_EVENTS,
        DROPPED_UDP,
        "5077299515bdac9e6681f573d39100e0c612a528e09d2aa5b112fcc76ef0da2e",
    ),
    # The coupled AQM marks DCTCP's ECT(1) and ECN-Cubic's ECT(0).
    "coupled_dctcp_ecn_cubic": (
        lambda: coexistence_pair(
            coupled_factory(), cc_b="ecn-cubic", duration=3.0, warmup=1.5,
            seed=1,
        ),
        9502,
        ALL_EVENTS,
        {("pass", "ECT0"), ("mark", "ECT0"), ("pass", "ECT1"), ("mark", "ECT1")},
        "299bcbbdf12f6346be1c69fa1fd5850ca41e5b06cb2710db59e8d734a6a08e23",
    ),
    "tcp_plus_udp_pie": (
        lambda: tcp_plus_udp(pie_factory(), duration=3.0, seed=1),
        3525,
        ALL_EVENTS,
        DROPPED_UDP,
        "8af67607befc4dfb2bff37ba271c51173f365a45b73574d726d0e291bc56aad7",
    ),
    "tcp_plus_udp_pi": (
        lambda: tcp_plus_udp(pi_factory(), duration=3.0, seed=1),
        3390,
        ALL_EVENTS,
        DROPPED_UDP,
        "61a1ca8d93689f3eb93897ddcb29a89e9e815750abbd5c31759c8417c5da1454",
    ),
    "tcp_plus_udp_red": (
        lambda: tcp_plus_udp(NamedAqmFactory(RedAqm), duration=3.0, seed=1),
        3422,
        {"aqm_decision", "engine_epoch"},
        DROPPED_UDP,
        "dd7971716f834bf15b471a9a3911772bee82174dc27fefd30577033f5ab89b18",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_sha256_is_pinned(name, tmp_path):
    build, records, event_types, verdicts, digest = PINNED[name]
    path = tmp_path / f"{name}.jsonl"
    with JsonlTracer(path) as tracer:
        run_experiment(build(), tracer=tracer)
    data = path.read_bytes()
    events = [json.loads(line) for line in data.decode("utf-8").splitlines()[1:]]
    assert len(events) == tracer.total_events == records
    assert {e["event"] for e in events} == event_types
    assert {
        (e["verdict"], e["ecn"]) for e in events if e["event"] == "aqm_decision"
    } == verdicts
    assert hashlib.sha256(data).hexdigest() == digest
