"""Unit tests of the RNG stream helpers (repro.rng)."""

import pickle

import numpy as np
import pytest

from repro.rng import ensure_rng, make_rng, rng_stream, spawn_rngs


class TestMakeRng:
    def test_default_is_deterministic(self):
        a = make_rng().random(5)
        b = make_rng().random(5)
        assert np.array_equal(a, b)

    def test_seeded(self):
        assert np.array_equal(make_rng(7).random(3), make_rng(7).random(3))

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(3), make_rng(2).random(3))


class TestEnsureRng:
    def test_passthrough(self, rng):
        assert ensure_rng(rng) is rng

    def test_int_seed(self):
        assert np.array_equal(ensure_rng(9).random(3), make_rng(9).random(3))

    def test_none_default(self):
        assert np.array_equal(ensure_rng(None).random(3), make_rng().random(3))


class TestSpawn:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    @pytest.mark.parametrize("seed", [-1, np.int64(-1)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            spawn_rngs(seed, 2)

    def test_generators_pickle(self):
        (a,) = spawn_rngs(5, 1)
        a.random(3)
        b = pickle.loads(pickle.dumps(a))
        assert np.array_equal(a.random(4), b.random(4))
        for x, y in zip(a.spawn(2), b.spawn(2)):
            assert x.bit_generator.state == y.bit_generator.state

    def test_streams_independent(self):
        a, b = spawn_rngs(42, 2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_reproducible(self):
        first = [g.random(4) for g in spawn_rngs(13, 3)]
        second = [g.random(4) for g in spawn_rngs(13, 3)]
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    def test_prefix_stability(self):
        # Spawning more streams must not change the earlier ones.
        three = [g.random(4) for g in spawn_rngs(99, 3)]
        five = [g.random(4) for g in spawn_rngs(99, 5)]
        for x, y in zip(three, five[:3]):
            assert np.array_equal(x, y)


class TestStream:
    def test_yields_fresh_generators(self):
        it = rng_stream(5)
        a = next(it)
        b = next(it)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_reproducible(self):
        x = [next(rng_stream(21)).random(3) for _ in range(1)][0]
        y = [next(rng_stream(21)).random(3) for _ in range(1)][0]
        assert np.array_equal(x, y)
