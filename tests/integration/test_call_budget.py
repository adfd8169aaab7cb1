"""Per-packet call budget: the bottleneck packet's path stays flat.

Every cell of the paper's evaluation pays its cost per bottleneck packet:
the data segment and its ACK cross the sender, the queue and its AQM, the
link, two pipes and the receiver.  This check counts Python calls into
``repro`` (with ``sys.setprofile``) during two untraced runs of one cell
that differ only in length, and divides the extra calls by the extra
dequeued packets.  Set-up and teardown cancel out, so what is left is the
per-packet path; a hop that gains a call that does no work fails it, on
any machine, however noisy.
"""

import sys

from repro.harness import light_tcp, run_experiment
from repro.harness.factories import pi2_factory

#: Python calls into ``repro`` per extra dequeued bottleneck packet for
#: ``light_tcp(pi2_factory(), seed=3)`` between 2 s and 4 s of simulated
#: time (1 487 extra packets).  It read 25.6 when every hop became one
#: call that does work, and 42.3 before.
CALLS_PER_PACKET_BUDGET = 25.6


def _repro_calls(duration):
    """Run the cell untraced; (Python calls into repro, packets dequeued)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module == "repro" or module.startswith("repro."):
                calls += 1

    experiment = light_tcp(pi2_factory(), duration=duration, seed=3)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run_experiment(experiment)
    finally:
        sys.setprofile(previous)
    return calls, result.bed.queue.stats.dequeued


class TestPerPacketCallBudget:
    def test_marginal_calls_per_dequeued_packet_within_budget(self):
        short_calls, short_packets = _repro_calls(2.0)
        long_calls, long_packets = _repro_calls(4.0)
        assert long_packets > short_packets
        per_packet = (long_calls - short_calls) / (long_packets - short_packets)
        assert per_packet <= CALLS_PER_PACKET_BUDGET, (
            f"{per_packet:.2f} repro calls per bottleneck packet, "
            f"budget {CALLS_PER_PACKET_BUDGET}"
        )
