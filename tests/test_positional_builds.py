"""Every ``Packet`` and ``Event`` in ``repro`` is built positionally.

A keyword call to a Python class builds a dict of its arguments before
``__init__`` runs.  A bottleneck packet once built 1.65 ``Packet``\\ s
(its segment and most of an ACK), so on Python 3.11 the keyword form
cost about 0.6 µs more per packet; the call-budget test cannot see it,
because the dict is no Python frame.  Every ACK is now its heap entry's
fields, so each bottleneck packet builds one ``Packet``.  The hot sites
pass every argument by position instead, which ties them to the
parameter order.  These tests pin each site against a keyword-built
reference, field by field, and scan the package for a keyword call
that would bring the dict back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.net.packet import DEFAULT_MSS, ECN, HEADER_BYTES, Packet
from repro.sim.engine import Event
from repro.tcp.reno import RenoSender
from repro.traffic.udp import UdpSource

SRC = Path(repro.__file__).resolve().parent


def assert_same_packet(built: Packet, reference: Packet) -> None:
    for field in Packet.__slots__:
        got, want = getattr(built, field), getattr(reference, field)
        assert type(got) is type(want), field
        assert got == want, field
    # The codepoints are enum members that the datapath compares by
    # identity (``pkt.ecn is _CE``).
    assert built.ecn is reference.ecn and built.ect is reference.ect


class TestHotSitesMatchKeywordBuilds:
    def test_new_segment_with_cwr_pending(self, sim):
        sent = []
        sender = RenoSender(sim, 4, transmit=sent.append, ecn_mode="classic")
        sim.run(0.5)
        sender._cwr_pending = True
        sender.start(at=0.5)
        sim.run(0.6)
        first = sent[0]
        assert_same_packet(first, Packet(
            flow_id=4, size=DEFAULT_MSS + HEADER_BYTES, seq=0, ecn=ECN.ECT0,
            cwr=True, send_time=0.5,
        ))
        # The flag rides on one segment only.
        assert_same_packet(sent[1], Packet(
            flow_id=4, size=DEFAULT_MSS + HEADER_BYTES, seq=1, ecn=ECN.ECT0,
            send_time=0.5,
        ))

    @pytest.mark.parametrize("mode,codepoint", [
        ("off", ECN.NOT_ECT), ("classic", ECN.ECT0), ("scalable", ECN.ECT1),
    ])
    def test_retransmission(self, sim, mode, codepoint):
        sent = []
        sender = RenoSender(sim, 2, transmit=sent.append, ecn_mode=mode, mss=1000)
        sim.run(0.25)
        sender._cwr_pending = mode == "classic"
        sender._send_segment(7)
        assert_same_packet(sent[-1], Packet(
            flow_id=2, size=1000 + HEADER_BYTES, seq=7, ecn=codepoint,
            cwr=mode == "classic", send_time=0.25, is_retransmit=True,
        ))

    @pytest.mark.parametrize("ecn", [ECN.NOT_ECT, ECN.ECT1])
    def test_udp_packet(self, sim, ecn):
        sent = []
        source = UdpSource(sim, 5, transmit=sent.append, rate_bps=1e6,
                           packet_size=500, ecn=ecn)
        source.start(at=0.5)
        sim.run(0.5)
        assert_same_packet(sent[0], Packet(
            flow_id=5, size=500, ecn=ecn, send_time=0.5,
        ))

    def test_event_from_at(self, sim):
        def fn(*args):
            pass

        sim.run(0.5)
        next(sim.seq)
        ev = sim.at(1.5, fn, 1, "x")
        reference = Event(time=1.5, seq=1, fn=fn, args=(1, "x"), sim=sim)
        for field in Event.__slots__:
            assert getattr(ev, field) == getattr(reference, field), field
        assert ev.sim is sim


def _keyword_builds(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.keywords:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("Packet", "Event"):
                yield name, node.lineno


class TestNoKeywordBuilds:
    def test_scan_finds_a_planted_keyword_build(self):
        planted = ast.parse("p = Packet(0, size=52)\ne = sim.Event(1, sim=s)\n")
        assert list(_keyword_builds(planted)) == [("Packet", 1), ("Event", 2)]

    def test_package_builds_packets_and_events_positionally(self):
        files = sorted(SRC.rglob("*.py"))
        assert files
        found = [
            f"{path.relative_to(SRC.parent)}:{line}: {name}(...) with keyword arguments"
            for path in files
            for name, line in sorted(
                _keyword_builds(ast.parse(path.read_text(encoding="utf-8"))),
                key=lambda build: build[1],
            )
        ]
        assert not found, "\n".join(found)
