"""A fixed reference loop that measures how fast the host runs Python now.

The reference 2-CPU host switches between a fast and a slow state every
few seconds to minutes (other tenants share its cores): the same cell
takes up to 1.5x longer in the slow state.  Raw times of runs made
minutes apart therefore differ far more than any bound a change should
be held to.  Each timed cell is bracketed by this loop, and its time is
scaled by ``REFERENCE_S / (loop time)``: the result is "seconds on the
reference host", comparable across runs, hours and hosts.

The loop is a small discrete-event simulation in plain Python (a heap
of events, per-flow objects with ``__slots__``, closures, float math and
dict updates), like the simulator's own inner loop, but it imports
nothing from ``repro``: a change to the code under test never changes
the yardstick.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: CPU seconds one :func:`calibrate` call takes on the reference host
#: (2-CPU Xeon VM at 2.1 GHz, Python 3.11, fast state).
REFERENCE_S = 0.025

#: Events one call simulates.
EVENTS = 15_000


class _Event:
    __slots__ = ("t", "seq", "fn", "flow")

    def __init__(self, t, seq, fn, flow):
        self.t = t
        self.seq = seq
        self.fn = fn
        self.flow = flow

    def __lt__(self, other):
        return (self.t, self.seq) < (other.t, other.seq)


class _Flow:
    __slots__ = ("cwnd", "sent", "acked", "log")

    def __init__(self):
        self.cwnd = 10.0
        self.sent = 0
        self.acked = 0
        self.log = []


def calibrate() -> float:
    """CPU seconds this process needs for the fixed loop right now.

    The cyclic garbage collector is off during the loop: otherwise its
    passes over whatever else the process holds (all of ``repro`` and
    NumPy, after imports) would be timed too.
    """
    rng = random.Random(7)
    flows = [_Flow() for _ in range(64)]
    counts = {}
    heap = []
    now = 0.0

    def send(flow):
        flow.sent += 1
        key = flow.sent & 255
        counts[key] = counts.get(key, 0) + 1
        return 0.001 + rng.random() * 0.01

    def ack(flow):
        flow.acked += 1
        flow.cwnd += 1.0 / flow.cwnd
        if len(flow.log) < 64:  # small: the loop must not raise peak RSS
            flow.log.append((now, flow.cwnd))
        return 0.0005

    for seq, flow in enumerate(flows):
        heapq.heappush(heap, _Event(rng.random(), seq, send, flow))
    seq = len(flows)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(EVENTS):
            event = heapq.heappop(heap)
            now = event.t
            delay = event.fn(event.flow)
            seq += 1
            heapq.heappush(heap, _Event(now + delay, seq,
                                        ack if event.fn is send else send,
                                        event.flow))
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()
