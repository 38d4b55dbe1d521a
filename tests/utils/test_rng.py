"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import (
    check_random_state,
    child_seed,
    spawn_rngs,
    spawn_seeds,
)


class TestCheckRandomState:
    def test_none_returns_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = check_random_state(42).random(5)
        b = check_random_state(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = check_random_state(1).random(5)
        b = check_random_state(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_seed_sequence_accepted(self):
        gen = check_random_state(np.random.SeedSequence(5))
        assert isinstance(gen, np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_random_state(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="random_state"):
            check_random_state("seed")

    def test_numpy_integer_accepted(self):
        gen = check_random_state(np.int64(7))
        assert isinstance(gen, np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_empty(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_independent(self):
        children = spawn_rngs(0, 3)
        draws = [c.random(4) for c in children]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_reproducible_from_seed(self):
        a = [g.random(3) for g in spawn_rngs(9, 2)]
        b = [g.random(3) for g in spawn_rngs(9, 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestChildSeed:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**62])
    def test_equals_every_spawn_seeds_entry(self, seed):
        """``child_seed(seed, i) == spawn_seeds(seed, n)[i]`` for every
        ``n > i``: the engine's window seeds and the service's tenant
        seeds rest on it."""
        spawned = {n: spawn_seeds(seed, n) for n in (1, 2, 17, 64, 300)}
        for i in range(300):
            child = child_seed(seed, i)
            for n, seeds in spawned.items():
                if i < n:
                    assert seeds[i] == child

    def test_numpy_integers_accepted(self):
        assert child_seed(np.int64(3), np.int32(4)) == spawn_seeds(3, 5)[4]

    @pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1)])
    def test_negative_rejected(self, seed, index):
        with pytest.raises(ValueError, match="non-negative"):
            child_seed(seed, index)

    @pytest.mark.parametrize("seed, index", [(1.0, 0), (0, "1"), (None, 0)])
    def test_non_integers_rejected(self, seed, index):
        with pytest.raises(TypeError, match="integers"):
            child_seed(seed, index)
