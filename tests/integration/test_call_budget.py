"""Per-packet call budget: the bottleneck packet's path stays flat.

Every cell of the paper's evaluation pays its cost per bottleneck packet.
A TCP data segment crosses its sender, the queue and its AQM, and the
link, which pushes it onto the engine's heap straight to its receiver;
the receiver pushes each ACK's fields straight back to the sender's
``on_ack``, with no ACK packet.  A UDP packet crosses its source, the
queue and the link, and ends there: it has no route.  This check counts
Python calls into ``repro`` (with ``sys.setprofile``) during two
untraced runs of one cell that differ only in length, and divides the
extra calls by the extra dequeued packets.  Set-up and teardown cancel out, so what is left is the
per-packet path; a hop that gains a call that does no work fails it, on
any machine, however noisy.

The profiler sees Python frames only.  A C call (``heappush``, a bound
``deque.__len__``) is invisible to it, and so is the dict a keyword call
to a Python class builds for its arguments: ``Packet(flow_id=...)`` and
``Packet(flow_id, ...)`` count the same one frame, though the keyword
call costs about twice as much.  ``tests/test_positional_builds.py``
keeps that cost out instead.

A traced run adds the ``aqm_decision`` hook on every enqueue.  The
traced cases run three of the cells with a ``JsonlTracer`` on every
category and count the same way, so a per-record frame creeping back
into the hook (a ``probability`` read per packet where the text is
cached, or an enum hash) fails them too.
"""

import sys
from functools import partial

import pytest

from repro.harness import light_tcp, run_experiment, tcp_plus_udp
from repro.harness.factories import coupled_factory, pi2_factory, pie_factory
from repro.harness.scenarios import MBPS, coexistence_pair
from repro.obs import JsonlTracer

#: Python calls into ``repro`` per extra dequeued bottleneck packet
#: between 2 s and 4 s of simulated time, seed 3: a cell builder taking
#: ``duration``, and its budget.
#:
#: * ``light_tcp`` (PI2, 1 487 extra packets) read 42.3 before each hop
#:   became one call that does work, then 25.6, then 17.75 once each
#:   fixed delay became one post straight to the next hop, 12.89 once
#:   the TCP endpoints' helper frames, the link's completion hop and
#:   ``AQM.decide`` were folded into the calls that do the work, and
#:   10.27 once the link's completion, its route to the receiver and the
#:   receiver's ACK hop pushed their heap entries themselves instead of
#:   through ``Simulator.post`` (2.62 frames per packet), and 9.39 once
#:   each ACK went to the sender as its heap entry's fields instead of
#:   a ``Packet`` and the delayed-ACK wakeup was pushed without
#:   ``Simulator.at`` and its ``Event``.
#: * ``tcp_plus_udp`` (PI2, 1 667 extra packets, most of them UDP: 12 Mb/s
#:   of it into 10 Mb/s) read 17.74, then 14.38, then 11.24, then 8.92
#:   with the UDP tick's push as well, then 8.83 with the ACK fields,
#:   then 7.89 once a UDP packet ended at the link instead of in a
#:   counting sink's ``deliver``; it also covers the queue's drop path
#:   and the link's flows with no route.
#: * ``coupled_pair`` (DCTCP and Cubic under the coupled AQM at
#:   200 Mb/s, 10 ms; 33 333 extra packets) read 17.64, then 11.04, then
#:   8.54, then 8.04 with the ACK fields; it is the only case that
#:   reaches ``CoupledPi2Aqm.on_enqueue``, DCTCP's per-packet echo and
#:   Cubic's ``ca_increase``.
#: * ``pie_light_tcp`` (PIE, 992 extra packets) and ``pie_tcp_plus_udp``
#:   (PIE, 1 667) read 13.23 and 12.63 before the pushes and before
#:   ``AQMQueue.packet_length``, which PIE reads on every arrival, became
#:   the FIFO's bound ``deque.__len__``; then 10.70 and 8.99, then 9.78
#:   and 8.90 with the ACK fields, then 9.78 and 7.97 with no sink
#:   frame per UDP packet.  PIE runs in claimed figures and in two
#:   benchmark workloads (``many_flows`` and ``udp_overload``).
CALLS_PER_PACKET_BUDGET = {
    "light_tcp": (partial(light_tcp, pi2_factory(), seed=3), 9.39),
    "tcp_plus_udp": (partial(tcp_plus_udp, pi2_factory(), seed=3), 7.90),
    "coupled_pair": (
        partial(
            coexistence_pair,
            coupled_factory(),
            capacity_bps=200 * MBPS,
            rtt=0.010,
            warmup=1.0,
            seed=3,
        ),
        8.04,
    ),
    "pie_light_tcp": (partial(light_tcp, pie_factory(), seed=3), 9.78),
    "pie_tcp_plus_udp": (partial(tcp_plus_udp, pie_factory(), seed=3), 7.98),
}

#: The same count with a ``JsonlTracer`` on every category, for three of
#: the cells above.  Each enqueue runs the ``aqm_decision`` hook, which
#: wrote its line for 12.97 (``tcp_plus_udp``), 13.06 (``pie_light_tcp``)
#: and 10.56 (``coupled_pair``) calls per packet while it read
#: ``probability`` (and PI2's ``clamp_unit``) on every record; with the
#: ``p`` text rebuilt only when ``controller.p`` is rebound they read
#: 10.43, 12.12 and 9.56, with each ACK sent as its heap entry's fields
#: 10.34, 11.19 and 9.06, and with each UDP packet ending at the link
#: 9.40, 11.19 and 9.06.
TRACED_CALLS_PER_PACKET_BUDGET = {
    "tcp_plus_udp": 9.41,
    "pie_light_tcp": 11.20,
    "coupled_pair": 9.06,
}


def _repro_calls(cell, duration, tracer=None):
    """Run the cell; (Python calls into repro, packets dequeued)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module == "repro" or module.startswith("repro."):
                calls += 1

    experiment = cell(duration=duration)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run_experiment(experiment, tracer=tracer)
    finally:
        sys.setprofile(previous)
    return calls, result.bed.queue.stats.dequeued


def _per_packet(build, tracers=(None, None)):
    """Extra repro calls per extra dequeued packet, 2 s against 4 s."""
    short_calls, short_packets = _repro_calls(build, 2.0, tracers[0])
    long_calls, long_packets = _repro_calls(build, 4.0, tracers[1])
    assert long_packets > short_packets
    return (long_calls - short_calls) / (long_packets - short_packets)


class TestPerPacketCallBudget:
    @pytest.mark.parametrize("cell", sorted(CALLS_PER_PACKET_BUDGET))
    def test_marginal_calls_per_dequeued_packet_within_budget(self, cell):
        build, budget = CALLS_PER_PACKET_BUDGET[cell]
        per_packet = _per_packet(build)
        assert per_packet <= budget, (
            f"{cell}: {per_packet:.2f} repro calls per bottleneck packet, "
            f"budget {budget}"
        )

    @pytest.mark.parametrize("cell", sorted(TRACED_CALLS_PER_PACKET_BUDGET))
    def test_traced_marginal_calls_within_budget(self, cell, tmp_path):
        build = CALLS_PER_PACKET_BUDGET[cell][0]
        budget = TRACED_CALLS_PER_PACKET_BUDGET[cell]
        with JsonlTracer(tmp_path / "short.jsonl") as short, JsonlTracer(
            tmp_path / "long.jsonl"
        ) as long:
            per_packet = _per_packet(build, (short, long))
        assert long.counts["aqm"] > short.counts["aqm"] > 0
        assert per_packet <= budget, (
            f"traced {cell}: {per_packet:.2f} repro calls per bottleneck "
            f"packet, budget {budget}"
        )
