"""Unit tests for SACK recovery (opt-in extension to the NewReno base)."""


from repro.tcp.reno import RenoSender
from tests.tcp.helpers import DROP, FORWARD, Loopback, drop_seqs


class TestSackAdvertisement:
    @staticmethod
    def _record_acks(lb, acks):
        """Record each ACK's ``(ack, sack)`` on its way to the sender (the
        receiver reads its ``on_ack`` per ACK, so a wrapper replaces it)."""
        original = lb.receiver.on_ack

        def on_ack(ack, ece, send_time, sack):
            acks.append((ack, sack))
            original(ack, ece, send_time, sack)

        lb.receiver.on_ack = on_ack

    def test_acks_carry_sack_blocks(self, sim):
        acks = []
        lb = Loopback(sim, rtt=0.1, flow_size=60, sack=True,
                      interceptor=drop_seqs(20))
        self._record_acks(lb, acks)
        lb.sender.start(0.0)
        sim.run(5.0)
        with_sack = [(ack, sack) for ack, sack in acks if sack]
        assert with_sack
        for ack, sack in with_sack:
            for start, end in sack:
                assert ack < start <= end

    def test_no_sack_by_default(self, sim):
        acks = []
        lb = Loopback(sim, rtt=0.1, flow_size=60, interceptor=drop_seqs(20))
        self._record_acks(lb, acks)
        lb.sender.start(0.0)
        sim.run(5.0)
        assert acks
        assert all(sack == () for _, sack in acks)


class TestSackRecovery:
    def test_single_loss_recovers(self, sim):
        lb = Loopback(sim, rtt=0.1, flow_size=300, sack=True,
                      interceptor=drop_seqs(50))
        lb.sender.start(0.0)
        sim.run(10.0)
        assert lb.sender.completed
        assert lb.sender.timeouts == 0
        assert lb.sender.loss_reductions == 1

    def test_multiple_scattered_losses_one_rtt_repair(self, sim):
        """SACK retransmits one hole per dupack: several same-window
        losses repair within roughly one RTT, without timeouts."""
        lb = Loopback(sim, rtt=0.1, flow_size=400, sack=True,
                      interceptor=drop_seqs(50, 55, 60, 65))
        lb.sender.start(0.0)
        sim.run(15.0)
        assert lb.sender.completed
        assert lb.sender.timeouts == 0
        assert lb.sender.loss_reductions == 1
        # Exactly the four lost segments were retransmitted.
        assert lb.sender.retransmits == 4

    def test_newreno_needs_more_round_trips(self, sim):
        """The same loss pattern under NewReno retransmits via sequential
        partial ACKs — SACK completes no later."""
        times = {}
        for sack in (True, False):
            lb = Loopback(sim=__import__("repro.sim", fromlist=["Simulator"]).Simulator(),
                          rtt=0.1, flow_size=400, sack=sack,
                          interceptor=drop_seqs(50, 55, 60, 65))
            lb.sender.start(0.0)
            lb.sim.run(30.0)
            assert lb.sender.completed
            times[sack] = lb.sender.completion_time
        assert times[True] <= times[False]

    def test_no_spurious_retransmits(self, sim):
        lb = Loopback(sim, rtt=0.1, flow_size=500, sack=True)
        lb.sender.start(0.0)
        sim.run(20.0)
        assert lb.sender.completed
        assert lb.sender.retransmits == 0

    def test_lost_retransmit_recovered_by_rto(self, sim):
        drops = {"n": 0}

        def interceptor(pkt):
            if pkt.seq == 30 and drops["n"] < 2:
                drops["n"] += 1
                return DROP
            return FORWARD

        lb = Loopback(sim, rtt=0.1, flow_size=150, sack=True,
                      interceptor=interceptor)
        lb.sender.start(0.0)
        sim.run(20.0)
        assert lb.sender.completed
        assert lb.sender.timeouts >= 1

    def test_flight_accounting_excludes_sacked(self, sim):
        """SACKed segments don't count against cwnd: with 20 outstanding,
        15 SACKed, and cwnd 10, the pipe holds 5 — so 5 new segments fit."""
        sent = []
        sender = RenoSender(sim, 0, transmit=sent.append, sack=True)
        sender.started = True
        sender.una = 0
        sender.next_seq = 20
        sender.cwnd = 10.0
        sender.in_recovery = True
        sender.recover_point = 20
        sender._sacked = set(range(5, 20))
        sender._maybe_send()
        assert [p.seq for p in sent] == [20, 21, 22, 23, 24]

    def test_newreno_flight_accounting_ignores_scoreboard(self, sim):
        """Without SACK the same state permits no new transmission."""
        sent = []
        sender = RenoSender(sim, 0, transmit=sent.append, sack=False)
        sender.started = True
        sender.una = 0
        sender.next_seq = 20
        sender.cwnd = 10.0
        sender.in_recovery = True
        sender.recover_point = 20
        sender._maybe_send()
        assert sent == []


class TestSackThroughput:
    def test_sack_beats_newreno_under_random_loss(self, sim):
        """Under 2 % i.i.d. loss, SACK recovers goodput that NewReno
        loses — the mechanism behind the EXPERIMENTS.md fidelity note."""

        from repro.aqm.fixed import FixedProbabilityAqm
        from repro.harness.experiment import Experiment, FlowGroup, run_experiment

        rates = {}
        for sack in (False, True):
            exp = Experiment(
                capacity_bps=200e6, duration=40.0, warmup=10.0,
                aqm_factory=lambda rng: FixedProbabilityAqm(0.02, rng),
                flows=[FlowGroup(cc="reno", count=1, rtt=0.04, label="x",
                                 sack=sack)],
                record_sojourns=False,
            )
            rates[sack] = sum(run_experiment(exp).goodputs("x"))
        assert rates[True] > rates[False]
