"""Unit tests for fixed-delay pipes and lossy pipes."""

import random

import pytest

from repro.net.node import CountingSink
from repro.net.pipe import LossyPipe, Pipe
from tests.conftest import make_packet


class TestPipe:
    def test_delivers_after_delay(self, sim):
        sink = CountingSink()
        pipe = Pipe(sim, 0.050, sink=sink)
        pipe.deliver(make_packet())
        sim.run(0.049)
        assert sink.packets == 0
        sim.run(0.051)
        assert sink.packets == 1

    def test_zero_delay_delivers_immediately(self, sim):
        sink = CountingSink()
        Pipe(sim, 0.0, sink=sink).deliver(make_packet())
        assert sink.packets == 1

    def test_ordering_preserved(self, sim):
        order = []

        class Recorder:
            def deliver(self, pkt):
                order.append(pkt.seq)

        pipe = Pipe(sim, 0.010, sink=Recorder())
        for i in range(5):
            sim.schedule(i * 0.001, pipe.deliver, make_packet(seq=i))
        sim.run(1.0)
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            Pipe(sim, -0.1)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            Pipe(sim, float("nan"))

    def test_missing_sink_raises(self, sim):
        with pytest.raises(RuntimeError):
            Pipe(sim, 0.1).deliver(make_packet())

    def test_delivered_counter(self, sim):
        sink = CountingSink()
        pipe = Pipe(sim, 0.01, sink=sink)
        pipe.deliver(make_packet())
        pipe.deliver(make_packet())
        sim.run(1.0)
        assert sink.packets == 2


class TestLossyPipe:
    def test_zero_loss_delivers_everything(self, sim):
        sink = CountingSink()
        pipe = LossyPipe(sim, 0.0, loss=0.0, rng=random.Random(1), sink=sink)
        for _ in range(100):
            pipe.deliver(make_packet())
        assert sink.packets == 100

    def test_full_loss_delivers_nothing(self, sim):
        sink = CountingSink()
        pipe = LossyPipe(sim, 0.0, loss=1.0, rng=random.Random(1), sink=sink)
        for _ in range(50):
            pipe.deliver(make_packet())
        assert sink.packets == 0
        assert pipe.lost == 50

    def test_partial_loss_rate(self, sim):
        sink = CountingSink()
        pipe = LossyPipe(sim, 0.0, loss=0.3, rng=random.Random(1), sink=sink)
        for _ in range(5000):
            pipe.deliver(make_packet())
        assert sink.packets == pytest.approx(3500, rel=0.06)

    def test_invalid_loss_rejected(self, sim):
        with pytest.raises(ValueError):
            LossyPipe(sim, 0.0, loss=1.5, rng=random.Random(1))
