"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import (
    check_random_state,
    child_seed,
    freeze_seed,
    spawn_rngs,
    spawn_seeds,
)

SeedSequence = np.random.SeedSequence


def _int_seeds(sequences):
    """The ``int`` seeds ``spawn_seeds`` derives from child sequences."""
    return [
        int(s.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for s in sequences
    ]


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


class TestSeedSequenceArgument:
    """A SeedSequence handed to ``spawn_seeds`` is read, never advanced."""

    def test_same_object_twice_gives_the_same_seeds(self):
        sequence = SeedSequence(3)
        first = spawn_seeds(sequence, 4)
        assert spawn_seeds(sequence, 4) == first
        assert spawn_seeds(sequence, 2) == first[:2]
        assert sequence.n_children_spawned == 0

    @pytest.mark.parametrize("make", [
        lambda: SeedSequence(3),
        lambda: SeedSequence(2**80 + 5, pool_size=8),
        lambda: SeedSequence(11).spawn(2)[1],
        lambda: SeedSequence([1, 2, 3], spawn_key=(4, 5)),
    ], ids=["int", "pool-size", "spawned-child", "spawn-key"])
    def test_equals_the_first_spawn_of_a_fresh_sequence(self, make):
        assert spawn_seeds(make(), 6) == _int_seeds(make().spawn(6))


class TestFreezeSeed:
    def test_integers_pass_through_as_int(self):
        assert freeze_seed(7) == 7
        frozen = freeze_seed(np.int64(7))
        assert frozen == 7 and type(frozen) is int

    def test_seed_sequence_freezes_to_its_first_child(self):
        sequence = SeedSequence(5)
        assert freeze_seed(sequence) == child_seed(5, 0)
        assert freeze_seed(sequence) == child_seed(5, 0)

    def test_generator_freezes_to_one_draw(self):
        expected = spawn_seeds(check_random_state(3), 1)[0]
        assert freeze_seed(check_random_state(3)) == expected

    def test_none_freezes_to_a_nonnegative_int(self):
        frozen = freeze_seed(None)
        assert type(frozen) is int and frozen >= 0

    def test_engine_and_service_freeze_alike(self):
        from repro.core.stream import StreamingDiagnosisEngine
        from repro.serve import DiagnosisService

        sequence = SeedSequence(9)
        engines = [
            StreamingDiagnosisEngine(random_state=sequence) for _ in range(2)
        ]
        with DiagnosisService(random_state=sequence) as service:
            frozen = service.random_state
        assert [e.random_state for e in engines] == [frozen, frozen]
        assert frozen == freeze_seed(SeedSequence(9))
