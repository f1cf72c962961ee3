import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fiqlab.rngstreams import (
    StreamDraws,
    first_random,
    rng_for,
    rngs_for,
    stream_words,
)

import oracles

# negative values and values of 2**32 or more included: both are reduced
# modulo 2**32
WIDE_INT = st.integers(-2 ** 40, 2 ** 40)


def list_seeded(seed, *path):
    """The stream as defined: default_rng over a SeedSequence of the
    list of values modulo 2**32."""
    entropy = [int(seed) & 0xFFFFFFFF] + [int(p) & 0xFFFFFFFF for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class TestRngFor:
    @given(WIDE_INT, st.lists(WIDE_INT | st.just(0), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_same_stream_as_list_seeded_default_rng(self, seed, path):
        got = rng_for(seed, *path)
        want = list_seeded(seed, *path)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.bytes(64) == want.bytes(64)

    def test_numpy_integers_accepted(self):
        got = rng_for(np.int64(7), np.uint32(3), np.int64(-1))
        want = list_seeded(7, 3, -1)
        assert got.integers(0, 2 ** 62, 8).tolist() == \
            want.integers(0, 2 ** 62, 8).tolist()

    def test_distinct_paths_distinct_streams(self):
        assert rng_for(1, 2, 3).bytes(16) != rng_for(1, 3, 2).bytes(16)

    def test_trailing_zeros_within_pool_collide(self):
        # SeedSequence zero-pads its 4-word pool: the documented exception
        first = rng_for(5, 4).random()
        assert first == 0.27833169435963245
        assert rng_for(5, 4, 0).random() == first
        assert rng_for(5, 4, 0, 0).random() == first
        assert rng_for(5, 4, 0, 0, 0).random() != first


class TestFirstRandom:
    @given(WIDE_INT, WIDE_INT, WIDE_INT, st.lists(WIDE_INT, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equals_first_draw_of_rng_for(self, seed, tag, counter, extra):
        # 0, the largest uint32 and values past it in every example
        idx = np.array([0, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 7, 2 ** 40]
                       + extra, dtype=np.int64)
        got = first_random(seed, tag, counter, idx)
        want = np.array([rng_for(seed, tag, counter, int(i)).random()
                         for i in idx])
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    @given(WIDE_INT, WIDE_INT,
           st.lists(st.tuples(WIDE_INT, WIDE_INT), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_per_element_counters(self, seed, tag, pairs):
        pairs = [(0, 2 ** 40), (2 ** 32 - 1, 0), (2 ** 32 + 7, -1)] + pairs
        counters = np.array([c for c, _ in pairs], dtype=np.int64)
        idx = np.array([i for _, i in pairs], dtype=np.int64)
        got = first_random(seed, tag, counters, idx)
        want = np.array([rng_for(seed, tag, int(c), int(i)).random()
                         for c, i in pairs])
        assert np.array_equal(got, want)

    def test_counters_broadcast_against_indices(self):
        counters = np.array([[3], [2 ** 32 + 3], [-5]])
        idx = np.arange(4)
        got = first_random(8, 4, counters, idx)
        assert got.shape == (3, 4)
        want = [[rng_for(8, 4, int(c), int(i)).random() for i in idx]
                for c in counters[:, 0]]
        assert np.array_equal(got, np.array(want))
        # counter 2**32 + 3 is counter 3 modulo 2**32
        assert np.array_equal(got[0], got[1])

    def test_empty_indices(self):
        assert first_random(1, 2, 3, []).shape == (0,)


class TestRngsFor:
    @given(WIDE_INT, WIDE_INT, WIDE_INT, st.lists(WIDE_INT, max_size=12),
           st.integers(1, 2 ** 40))
    @settings(max_examples=100, deadline=None)
    def test_draws_and_state_match_rng_for(self, seed, tag, counter, extra,
                                           high):
        idx = np.array([0, 2 ** 32 - 1, 2 ** 32 + 7] + extra, dtype=np.int64)
        seen = 0
        for i, got in zip(idx.tolist(), rngs_for(seed, tag, counter, idx)):
            want = rng_for(seed, tag, counter, i)
            # integers(0, 16) takes a stale buffered half word as is (a
            # range not a power of two may reject it); the last, 32-bit,
            # draw leaves half a word buffered, which the next stream
            # must not see
            draws = [(g.random(), g.uniform(0.5, 2.0), g.integers(0, 16),
                      g.integers(0, high), g.integers(0, 1),
                      g.random(3).tolist(), g.integers(0, 24))
                     for g in (got, want)]
            assert draws[0] == draws[1]
            assert got.bit_generator.state == want.bit_generator.state
            seen += 1
        assert seen == idx.size

    @given(WIDE_INT, WIDE_INT,
           st.lists(st.tuples(WIDE_INT, WIDE_INT), max_size=12),
           st.floats(0.0, 10.0), st.floats(-5.0, 5.0), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_per_element_counters_and_array_draws(self, seed, tag, pairs,
                                                  s, a, k):
        # synthesis seeds one stream per (class, sample) and draws pose
        # shifts with normal(0, s, 2) and duplicate noise as a k x k block
        pairs = [(0, 2 ** 40), (2 ** 32 - 1, 0), (2 ** 32 + 7, -1)] + pairs
        counters = np.array([c for c, _ in pairs], dtype=np.int64)
        idx = np.array([i for _, i in pairs], dtype=np.int64)
        seen = 0
        for (c, i), got in zip(pairs, rngs_for(seed, tag, counters, idx)):
            want = rng_for(seed, tag, c, i)
            draws = [(g.normal(0.0, s, 2).tolist(),
                      g.uniform(a, a + 1.0, (k, k)).tolist(), g.random())
                     for g in (got, want)]
            assert draws[0] == draws[1]
            assert got.bit_generator.state == want.bit_generator.state
            seen += 1
        assert seen == len(pairs)

    def test_empty_indices(self):
        assert list(rngs_for(1, 2, 3, np.arange(0))) == []


class TestStreamWords:
    @given(WIDE_INT, WIDE_INT,
           st.lists(st.tuples(WIDE_INT, WIDE_INT), max_size=20),
           st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_equals_random_raw_of_rng_for(self, seed, tag, pairs, k):
        pairs = [(0, 2 ** 40), (2 ** 32 - 1, 0), (2 ** 32 + 7, -1)] + pairs
        counters = np.array([c for c, _ in pairs], dtype=np.int64)
        idx = np.array([i for _, i in pairs], dtype=np.int64)
        got = stream_words(seed, tag, counters, idx, k)
        assert got.dtype == np.uint64 and got.shape == (len(pairs), k)
        want = [rng_for(seed, tag, c, i).bit_generator.random_raw(k).tolist()
                for c, i in pairs]
        assert got.tolist() == want

    def test_scalar_counter_broadcasts(self):
        got = stream_words(8, 4, 3, np.arange(4), 2)
        assert got.shape == (4, 2)
        assert np.array_equal(got, stream_words(8, 4, np.full(4, 3),
                                                np.arange(4), 2))


class TestStreamDraws:
    def test_asks_again_when_a_stream_runs_out(self):
        idx = np.arange(6)
        asked = []

        def source(k):
            asked.append(k)
            return stream_words(4, 5, 6, idx, k)

        draws = StreamDraws(source, 1)
        got = [draws.random(idx), draws.integers(24, idx),
               draws.uniform(0.5, 2.0, idx), draws.integers(idx + 1, idx),
               draws.integers(2 ** 32, idx), draws.integers(1, idx),
               draws.random(idx)]
        assert asked[0] == 1 and len(asked) > 1
        for k in idx.tolist():
            rng = rng_for(4, 5, 6, k)
            want = [rng.random(), rng.integers(0, 24), rng.uniform(0.5, 2.0),
                    rng.integers(0, k + 1), rng.integers(0, 2 ** 32),
                    rng.integers(0, 1), rng.random()]
            assert [g[k] for g in got] == want

    def test_rows_draw_apart(self):
        # a call for some streams moves only their cursors, which may
        # start at different words
        idx = np.arange(4)
        start = [0, 1, 0, 2]
        draws = StreamDraws(lambda k: stream_words(1, 2, 3, idx, k), 3,
                            start=start)
        rngs = [rng_for(1, 2, 3, k) for k in idx.tolist()]
        for rng, skip in zip(rngs, start):
            rng.bit_generator.advance(skip)
        some = np.array([1, 3])
        assert draws.integers(5, some).tolist() == [
            rngs[k].integers(0, 5) for k in (1, 3)]
        assert draws.random(idx).tolist() == [rng.random() for rng in rngs]

    def test_generator_words_leave_the_generator(self):
        rng = rng_for(9, 9)
        rng.random()
        state = rng.bit_generator.state
        words = oracles.generator_words(rng)(4)
        assert rng.bit_generator.state == state
        assert words.tolist() == [rng.bit_generator.random_raw(4).tolist()]
