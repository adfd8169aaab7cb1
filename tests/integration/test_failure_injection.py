"""Failure-injection tests: the transport machinery under adverse paths.

The transport cases run one Reno flow over the dumbbell's two hops with
no bottleneck: the forward hop posts each data segment ``one_way`` to
the receiver, and the receiver pushes each ACK's fields ``one_way`` back
to ``on_ack``.  Each impairment is a few lines on one hop, draws from
its own named stream, and counts the times it fired, so every case can
show that its impairment happened.
"""

from collections import Counter

import pytest

from repro.harness.experiment import Experiment, FlowGroup, run_experiment
from repro.harness.factories import pi2_factory, pie_factory
from repro.net.faults import BurstLossFault, GilbertElliottLoss, LinkFlapFault
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.tcp.cubic import CubicSender
from repro.tcp.dctcp import DctcpSender
from repro.tcp.reno import RenoSender
from repro.tcp.receiver import TcpReceiver


def transfer(
    data_delays,
    ack_delays=None,
    one_way=0.025,
    flow_size=400,
    sack=False,
    sender_cls=RenoSender,
    sim=None,
):
    """Run one flow (Reno by default) for up to 120 s; returns (sender, receiver).

    ``data_delays(pkt)`` gives the delays after which the forward hop
    delivers the segment: none loses it, one extra-long one holds it
    back, two duplicate it.  ``ack_delays()``, when given, gives the
    extra delays, past the reverse hop's ``one_way``, after which each
    ACK reaches the sender's ``on_ack``: none loses it, a zero hands it
    on at once, two zeros duplicate it back to back, a positive one
    holds it back.  A hop that reads the clock reads the ``sim`` it is
    given.
    """
    sim = sim or Simulator()

    def forward(pkt):
        for delay in data_delays(pkt):
            sim.post(delay, receiver.deliver, pkt)

    sender = sender_cls(sim, 0, transmit=forward, flow_size=flow_size, sack=sack)
    on_ack = sender.on_ack
    if ack_delays is not None:

        def on_ack(*fields):
            for extra in ack_delays():
                if extra:
                    sim.post(extra, sender.on_ack, *fields)
                else:
                    sender.on_ack(*fields)

    receiver = TcpReceiver(sim, 0, one_way, on_ack, ecn_mode=sender.ecn_mode)
    sender.start(0.0)
    sim.run(120.0)
    return sender, receiver


class TestRandomPathLoss:
    def _run_with_loss(self, fwd_loss, rev_loss, flow_size=400, seed=1):
        """Independent loss on each hop; returns (sender, receiver, lost)."""
        streams = RandomStreams(seed)
        fwd, rev = streams.stream("fwd"), streams.stream("rev")
        lost = Counter()

        def data_delays(pkt):
            if fwd_loss > 0 and fwd.random() < fwd_loss:
                lost["data"] += 1
                return ()
            return (0.05,)

        def ack_delays():
            if rev_loss > 0 and rev.random() < rev_loss:
                lost["ack"] += 1
                return ()
            return (0.0,)

        sender, receiver = transfer(
            data_delays, ack_delays, one_way=0.05, flow_size=flow_size
        )
        return sender, receiver, lost

    def test_completes_under_5pct_data_loss(self):
        sender, receiver, lost = self._run_with_loss(0.05, 0.0)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert lost["data"] > 0

    def test_completes_under_ack_loss(self):
        """Cumulative ACKs tolerate reverse-path loss."""
        sender, receiver, lost = self._run_with_loss(0.0, 0.3)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert lost["ack"] > 0

    def test_completes_under_bidirectional_loss(self):
        sender, receiver, lost = self._run_with_loss(0.05, 0.1)
        assert sender.completed
        assert lost["data"] > 0 and lost["ack"] > 0

    def test_heavy_loss_progresses_via_timeouts(self):
        sender, receiver, lost = self._run_with_loss(0.3, 0.0, flow_size=50)
        assert sender.completed
        assert sender.timeouts > 0
        assert lost["data"] > 0


class TestCapacityCollapse:
    def test_aqm_recovers_from_10x_capacity_drop(self):
        r = run_experiment(
            Experiment(
                capacity_bps=100e6,
                duration=40.0,
                warmup=5.0,
                aqm_factory=pi2_factory(),
                flows=[FlowGroup(cc="reno", count=10, rtt=0.02)],
                capacity_schedule=[(15.0, 10e6)],
            )
        )
        # After the collapse the controller must re-pin the target.
        tail = r.queue_delay.window(30.0, 40.0)
        assert tail.mean() == pytest.approx(0.020, abs=0.015)

    def test_capacity_increase_keeps_queue_controlled(self):
        r = run_experiment(
            Experiment(
                capacity_bps=10e6,
                duration=40.0,
                warmup=5.0,
                aqm_factory=pie_factory(),
                flows=[FlowGroup(cc="reno", count=10, rtt=0.02)],
                capacity_schedule=[(15.0, 100e6)],
            )
        )
        tail = r.queue_delay.window(30.0, 40.0)
        assert tail.max() < 0.100


class TestAdversePaths:
    """End-to-end transfers with a reordering, duplicating or bursty hop."""

    ONE_WAY = 0.025

    def _reordering(self, fired):
        """30% of data packets delayed enough to be overtaken."""
        rng = RandomStreams(1).stream("fwd")

        def data_delays(pkt):
            if rng.random() < 0.3:
                fired["reordered"] += 1
                return (self.ONE_WAY + 0.010,)
            return (self.ONE_WAY,)

        return data_delays

    def _bursty_loss(self, fired):
        """Gilbert–Elliott bursts at 5% loss, 5 packets long on average."""
        model = GilbertElliottLoss.from_rates(
            RandomStreams(4).stream("ge"), loss_rate=0.05, mean_burst=5.0
        )

        def data_delays(pkt):
            if model.should_drop():
                fired["lost"] += 1
                return ()
            return (self.ONE_WAY,)

        return data_delays

    @pytest.mark.parametrize("sack", [False, True])
    def test_completes_under_reordering(self, sack):
        """Spurious dupACKs must not wedge either NewReno or SACK recovery."""
        fired = Counter()
        sender, receiver = transfer(self._reordering(fired), sack=sack)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["reordered"] > 0

    @pytest.mark.parametrize("sack", [False, True])
    def test_completes_under_duplication(self, sack):
        """20% duplicated data packets: stale copies must be discarded,
        not double-delivered or allowed to corrupt ACK accounting."""
        rng = RandomStreams(2).stream("fwd")
        fired = Counter()

        def data_delays(pkt):
            if rng.random() < 0.2:
                fired["duplicated"] += 1
                return (self.ONE_WAY, self.ONE_WAY + 0.001)
            return (self.ONE_WAY,)

        sender, receiver = transfer(data_delays, sack=sack)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["duplicated"] > 0
        assert receiver.duplicates > 0

    def test_completes_under_duplicated_acks(self):
        """Duplicated pure ACKs must be treated as stale, not as dupACKs
        signalling loss."""
        rng = RandomStreams(3).stream("rev")
        fired = Counter()

        def ack_delays():
            if rng.random() < 0.3:
                fired["duplicated"] += 1
                return (0.0, 0.0)
            return (0.0,)

        sender, receiver = transfer(lambda pkt: (self.ONE_WAY,), ack_delays)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["duplicated"] > 0

    @pytest.mark.parametrize("sack", [False, True])
    def test_completes_under_reordered_acks(self, sack):
        """30% of ACKs held back 10 ms, so an older cumulative ACK lands
        after newer ones: a stale ACK must not move ``una`` back or wedge
        recovery."""
        rng = RandomStreams(5).stream("rev")
        fired = Counter()

        def ack_delays():
            if rng.random() < 0.3:
                fired["reordered"] += 1
                return (0.010,)
            return (0.0,)

        sender, receiver = transfer(lambda pkt: (self.ONE_WAY,), ack_delays, sack=sack)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["reordered"] > 0

    @pytest.mark.parametrize("sack", [False, True])
    def test_completes_under_bursty_loss(self, sack):
        """Bursts take out whole windows; retransmission machinery (RTO
        back-off + recovery) must still finish the flow."""
        fired = Counter()
        sender, receiver = transfer(self._bursty_loss(fired), sack=sack)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["lost"] > 0

    # Cubic and DCTCP share the base sender's recovery but react to it
    # with their own window updates.
    @pytest.mark.parametrize("sender_cls", [CubicSender, DctcpSender], ids=["cubic", "dctcp"])
    def test_other_senders_complete_under_reordering(self, sender_cls):
        fired = Counter()
        sender, receiver = transfer(self._reordering(fired), sender_cls=sender_cls)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["reordered"] > 0

    @pytest.mark.parametrize("sender_cls", [CubicSender, DctcpSender], ids=["cubic", "dctcp"])
    def test_other_senders_complete_under_bursty_loss(self, sender_cls):
        fired = Counter()
        sender, receiver = transfer(self._bursty_loss(fired), sender_cls=sender_cls)
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["lost"] > 0


class TestBlackouts:
    """Every packet on one hop lost for one second early in the transfer."""

    ONE_WAY = 0.025
    START, END = 0.1, 1.1

    def _hop(self, sim, fired, delays):
        """A hop's delays that come to nothing inside the blackout."""

        def hop(*_):
            if self.START <= sim.now < self.END:
                fired["lost"] += 1
                return ()
            return delays

        return hop

    def test_completes_after_a_data_blackout(self):
        """Every retransmission inside the blackout is lost as well, so
        the RTO must back off and fire again until the hop returns."""
        sim, fired = Simulator(), Counter()
        sender, receiver = transfer(
            self._hop(sim, fired, (self.ONE_WAY,)), sim=sim
        )
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["lost"] > 0
        assert sender.timeouts >= 2

    def test_completes_after_an_ack_blackout(self):
        """The receiver holds the data but the sender hears nothing: the
        segments its timeouts resend must be discarded as duplicates."""
        sim, fired = Simulator(), Counter()
        sender, receiver = transfer(
            lambda pkt: (self.ONE_WAY,), self._hop(sim, fired, (0.0,)), sim=sim
        )
        assert sender.completed
        assert receiver.rcv_next == 400
        assert fired["lost"] > 0
        assert sender.timeouts >= 1
        assert receiver.duplicates > 0


class TestFaultSchedule:
    def test_pi2_recovers_from_flap_and_burst_loss(self):
        """The declarative fault path end-to-end: a bottleneck outage plus
        a bursty-loss window mid-run, with invariant checking on; PI2 must
        re-pin its 20 ms target once the faults clear."""
        r = run_experiment(
            Experiment(
                capacity_bps=10e6,
                duration=40.0,
                warmup=5.0,
                aqm_factory=pi2_factory(),
                flows=[FlowGroup(cc="reno", count=5, rtt=0.02)],
                faults=[
                    LinkFlapFault(10.0, 1.0),
                    BurstLossFault(15.0, 5.0, loss_rate=0.05, mean_burst=8.0),
                ],
                validate=True,
            )
        )
        # All scheduled fault transitions fired, in order.
        events = [msg for _, msg in r.fault_timeline]
        assert events[0] == "link down"
        assert "link up" in events
        assert any("burst loss" in msg and "on" in msg for msg in events)
        assert any("burst loss" in msg and "off" in msg for msg in events)
        # Losses were attributed to the fault gate, not the AQM.
        assert r.queue_stats.fault_dropped > 0
        # Invariants held throughout.
        assert r.invariant_checks > 0
        # Recovery: the controller re-pins the target after the faults.
        tail = r.queue_delay.window(30.0, 40.0)
        assert tail.mean() == pytest.approx(0.020, abs=0.015)


class TestBufferExhaustion:
    def test_tiny_buffer_tail_drops_but_flows_survive(self):
        r = run_experiment(
            Experiment(
                capacity_bps=10e6,
                duration=20.0,
                warmup=5.0,
                aqm_factory=pi2_factory(),
                flows=[FlowGroup(cc="reno", count=10, rtt=0.05)],
                buffer_packets=20,
            )
        )
        assert r.queue_stats.tail_dropped > 0
        assert sum(r.goodputs("reno")) > 5e6
