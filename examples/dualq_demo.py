#!/usr/bin/env python3
"""DualQ Coupled demo: where the PI2 research programme leads.

The paper's conclusion is explicit: the single-queue coupled AQM is a
research step — Scalable traffic still suffers the Classic queue's 20 ms.
The recommended deployment (later RFC 9332 'DualPI2') gives Scalable
traffic its own shallow queue, coupled to the Classic PI2 AQM.

This demo runs a DCTCP + Cubic pair through both arrangements and prints
per-class queue delay and throughput: DualQ keeps the ≈1:1 rate balance
*and* gives DCTCP sub-millisecond queuing while Cubic keeps its 20 ms.

Run:  python examples/dualq_demo.py
"""

import numpy as np

from repro.aqm.dualq import DualQueueCoupledAqm
from repro.harness import MBPS, coupled_factory
from repro.harness.topology import Dumbbell
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

CAPACITY = 40 * MBPS
RTT = 0.010
DURATION = 30.0
WARMUP = 10.0


def run(kind):
    sim = Simulator()
    streams = RandomStreams(7)
    per_class = {"scalable": [], "classic": []}

    def on_sojourn(now, sojourn, pkt):
        if now >= WARMUP:
            key = "scalable" if pkt.is_scalable else "classic"
            per_class[key].append(sojourn)

    if kind == "single queue (paper §5)":
        aqm = coupled_factory()(streams.stream("aqm"))
        queue = AQMQueue(sim, aqm, CAPACITY, on_sojourn=on_sojourn)
    else:
        queue = DualQueueCoupledAqm(
            sim, CAPACITY, rng=streams.stream("aqm"), on_sojourn=on_sojourn
        )
    bed = Dumbbell(sim, streams, CAPACITY, aqm=None, queue=queue,
                   record_sojourns=False)
    bed.add_tcp_flow("dctcp", rtt=RTT, label="dctcp")
    bed.add_tcp_flow("cubic", rtt=RTT, label="cubic")
    sim.at(WARMUP, bed.flows.open_windows, WARMUP)
    sim.run(DURATION)

    dctcp = sum(bed.goodput_bps("dctcp", DURATION)) / 1e6
    cubic = sum(bed.goodput_bps("cubic", DURATION)) / 1e6
    print(f"=== {kind} ===")
    print(f"  DCTCP queue delay: {np.mean(per_class['scalable']) * 1e3:6.2f} ms"
          f"   throughput {dctcp:5.1f} Mb/s")
    print(f"  Cubic queue delay: {np.mean(per_class['classic']) * 1e3:6.2f} ms"
          f"   throughput {cubic:5.1f} Mb/s")
    print(f"  rate balance cubic/dctcp: {cubic / dctcp:.2f}\n")


def main():
    print("DCTCP + Cubic, 40 Mb/s, 10 ms base RTT, 30 s\n")
    run("single queue (paper §5)")
    run("DualQ Coupled (paper §7 / RFC 9332 direction)")
    print("DualQ keeps the coexistence property and removes the Classic")
    print("queue's delay from the Scalable traffic — 'ultra-low delay for all'.")


if __name__ == "__main__":
    main()
