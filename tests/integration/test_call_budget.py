"""Per-packet call budget: the bottleneck packet's path stays flat.

Every cell of the paper's evaluation pays its cost per bottleneck packet.
A TCP data segment crosses its sender, the queue and its AQM, and the
link, which posts it straight to its receiver; the receiver posts each
ACK straight back to the sender.  A UDP packet crosses its source, the
queue and the link, and ends in the dumbbell's counting sink.  This check
counts Python calls into ``repro`` (with ``sys.setprofile``) during two
untraced runs of one cell that differ only in length, and divides the
extra calls by the extra dequeued packets.  Set-up and teardown cancel
out, so what is left is the per-packet path; a hop that gains a call that
does no work fails it, on any machine, however noisy.
"""

import sys

import pytest

from repro.harness import light_tcp, run_experiment, tcp_plus_udp
from repro.harness.factories import pi2_factory

#: Python calls into ``repro`` per extra dequeued bottleneck packet
#: between 2 s and 4 s of simulated time, seed 3, PI2.  ``light_tcp``
#: (1 487 extra packets) read 42.3 before each hop became one call that
#: does work, then 25.6, and 17.75 once each fixed delay became one post
#: straight to the next hop and the sojourn and goodput bookkeeping
#: stopped calling Python.  ``tcp_plus_udp`` (1 667 extra packets, most of
#: them UDP: 12 Mb/s of it into 10 Mb/s) read 17.74, then 14.38; it also
#: covers the queue's drop path and the link's flows with no route.
CALLS_PER_PACKET_BUDGET = {
    "light_tcp": (light_tcp, 17.75),
    "tcp_plus_udp": (tcp_plus_udp, 14.38),
}


def _repro_calls(scenario, duration):
    """Run the cell untraced; (Python calls into repro, packets dequeued)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module == "repro" or module.startswith("repro."):
                calls += 1

    experiment = scenario(pi2_factory(), duration=duration, seed=3)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run_experiment(experiment)
    finally:
        sys.setprofile(previous)
    return calls, result.bed.queue.stats.dequeued


class TestPerPacketCallBudget:
    @pytest.mark.parametrize("cell", sorted(CALLS_PER_PACKET_BUDGET))
    def test_marginal_calls_per_dequeued_packet_within_budget(self, cell):
        scenario, budget = CALLS_PER_PACKET_BUDGET[cell]
        short_calls, short_packets = _repro_calls(scenario, 2.0)
        long_calls, long_packets = _repro_calls(scenario, 4.0)
        assert long_packets > short_packets
        per_packet = (long_calls - short_calls) / (long_packets - short_packets)
        assert per_packet <= budget, (
            f"{cell}: {per_packet:.2f} repro calls per bottleneck packet, "
            f"budget {budget}"
        )
