"""Tests for deterministic per-component RNG streams."""

import random

from repro.util.rng import KeyedStream, RngStreams


class TestStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(42).stream("mobility")
        b = RngStreams(42).stream("mobility")
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]

    def test_streams_are_cached(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_different_names_are_independent(self):
        streams = RngStreams(7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_consuming_one_stream_does_not_shift_another(self):
        ref = RngStreams(3)
        expected = [ref.stream("b").random() for _ in range(3)]
        mixed = RngStreams(3)
        for _ in range(100):
            mixed.stream("a").random()   # heavy use of a different stream
        assert [mixed.stream("b").random() for _ in range(3)] == expected

    def test_master_seed_property(self):
        assert RngStreams(99).master_seed == 99

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").random()
        b = RngStreams(2).stream("x").random()
        assert a != b


class TestFork:
    def test_fork_is_deterministic(self):
        a = RngStreams(5).fork("run-1").stream("x").random()
        b = RngStreams(5).fork("run-1").stream("x").random()
        assert a == b

    def test_fork_differs_from_parent(self):
        parent = RngStreams(5)
        child = parent.fork("run-1")
        assert parent.master_seed != child.master_seed

    def test_fork_names_differ(self):
        base = RngStreams(5)
        assert (
            base.fork("run-1").master_seed != base.fork("run-2").master_seed
        )


class TestKeyedStream:
    def test_a_draw_is_a_function_of_seed_stream_entity_and_index(self):
        one = KeyedStream(RngStreams(5).stream("mobility"))
        same = KeyedStream(RngStreams(5).stream("mobility"))
        # Asked in another order, some twice, some never: same answers.
        asked = [one.draw(e, k) for e in (7, (2, 9)) for k in range(4)]
        same.draw(3, 0)
        again = [
            same.draw(e, k) for e in ((2, 9), 7) for k in (3, 1, 1, 0, 2)
        ]
        assert again == [asked[4 + k] for k in (3, 1, 1, 0, 2)] + [
            asked[k] for k in (3, 1, 1, 0, 2)
        ]
        assert len(set(asked)) == len(asked)
        assert all(0.0 <= value < 1.0 for value in asked)
        for other in (
            KeyedStream(RngStreams(6).stream("mobility")),
            KeyedStream(RngStreams(5).stream("chaos.links")),
        ):
            assert other.draw(7, 0) != one.draw(7, 0)

    def test_the_key_is_the_one_draw_taken_from_the_stream(self):
        rng, untouched = random.Random(3), random.Random(3)
        keyed = KeyedStream(rng)
        untouched.getrandbits(64)
        legs = keyed.of(4)
        drawn = [legs.uniform(10.0, 20.0) for _ in range(3)]
        assert drawn == [10.0 + 10.0 * keyed.draw(4, k) for k in range(3)]
        assert rng.getstate() == untouched.getstate()

    def test_draws_fill_the_unit_interval_evenly(self):
        keyed = KeyedStream(random.Random(0))
        draws = [keyed.draw(e, k) for e in range(100) for k in range(100)]
        tenths = [0] * 10
        for value in draws:
            tenths[int(value * 10)] += 1
        assert min(tenths) > 900 and max(tenths) < 1100
        assert abs(sum(draws) / len(draws) - 0.5) < 0.01
