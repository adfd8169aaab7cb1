"""Trace bytes are pinned: two short traced cells hash to fixed sha256s.

The JSONL line encoding is part of trace schema 1, and most lines of a
trace are ``aqm_decision`` records that ``install_aqm_tracer`` writes as
one formatted line instead of through the JSON encoder.  The digests
below were recorded when every line still went through
``json.dumps(record, sort_keys=True, default=str)``, so a trace that
drifts from that encoding by one byte fails here.  Between them the two
cells record ``pass``, ``drop`` and ``mark`` verdicts on ``NOT_ECT``,
``ECT0`` and ``ECT1`` packets, plus ``aqm_update`` and ``engine_epoch``
records.
"""

import hashlib
import json

import pytest

from repro.harness import coexistence_pair, run_experiment, tcp_plus_udp
from repro.harness.factories import coupled_factory, pi2_factory
from repro.obs import JsonlTracer

#: name -> (experiment builder, records, (verdict, ecn) pairs, sha256)
PINNED = {
    # PI2 drops the unresponsive UDP flows' NOT_ECT packets.
    "tcp_plus_udp_pi2": (
        lambda: tcp_plus_udp(pi2_factory(), duration=3.0, seed=1),
        3516,
        {("pass", "NOT_ECT"), ("drop", "NOT_ECT")},
        "5077299515bdac9e6681f573d39100e0c612a528e09d2aa5b112fcc76ef0da2e",
    ),
    # The coupled AQM marks DCTCP's ECT(1) and ECN-Cubic's ECT(0).
    "coupled_dctcp_ecn_cubic": (
        lambda: coexistence_pair(
            coupled_factory(), cc_b="ecn-cubic", duration=3.0, warmup=1.5,
            seed=1,
        ),
        9502,
        {("pass", "ECT0"), ("mark", "ECT0"), ("pass", "ECT1"), ("mark", "ECT1")},
        "299bcbbdf12f6346be1c69fa1fd5850ca41e5b06cb2710db59e8d734a6a08e23",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_sha256_is_pinned(name, tmp_path):
    build, records, verdicts, digest = PINNED[name]
    path = tmp_path / f"{name}.jsonl"
    with JsonlTracer(path) as tracer:
        run_experiment(build(), tracer=tracer)
    data = path.read_bytes()
    events = [json.loads(line) for line in data.decode("utf-8").splitlines()[1:]]
    assert len(events) == tracer.total_events == records
    assert {e["event"] for e in events} == {
        "aqm_decision", "aqm_update", "engine_epoch",
    }
    assert {
        (e["verdict"], e["ecn"]) for e in events if e["event"] == "aqm_decision"
    } == verdicts
    assert hashlib.sha256(data).hexdigest() == digest
