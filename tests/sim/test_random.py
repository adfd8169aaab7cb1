"""Unit tests for seeded named random streams."""

from repro.sim.random import RandomStreams


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_give_independent_streams(self):
        streams = RandomStreams(1)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        a = RandomStreams(7).stream("x").random()
        b = RandomStreams(7).stream("x").random()
        assert a == b

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random()
        b = RandomStreams(2).stream("x").random()
        assert a != b

    def test_stream_independent_of_request_order(self):
        s1 = RandomStreams(3)
        s2 = RandomStreams(3)
        s1.stream("first")
        v1 = s1.stream("second").random()
        v2 = s2.stream("second").random()
        assert v1 == v2
