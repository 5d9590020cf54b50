"""Tests for the deterministic RNG utilities."""

import numpy as np
import pytest

from repro.rng import (
    choice_without_replacement,
    derive,
    make_rng,
    spawn,
)


class TestMakeRng:
    def test_int_seed_deterministic(self):
        a, b = make_rng(42), make_rng(42)
        assert a.random() == b.random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        a = make_rng(np.random.SeedSequence(7))
        b = make_rng(ss)
        assert a.random() == b.random()

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawn:
    def test_children_independent_of_each_other(self):
        parent = make_rng(1)
        a, b = spawn(parent, 2)
        assert a.random() != b.random()

    def test_spawn_count(self):
        assert len(spawn(make_rng(0), 5)) == 5
        assert spawn(make_rng(0), 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(make_rng(0), -1)

    def test_adding_consumer_does_not_perturb_existing(self):
        """Child i's stream is identical whether or not more children are
        spawned afterwards -- the property client simulations rely on."""
        p1, p2 = make_rng(3), make_rng(3)
        kids1 = spawn(p1, 2)
        kids2 = spawn(p2, 2)
        _extra = spawn(p2, 3)  # extra spawning after the fact
        np.testing.assert_array_equal(
            kids1[0].random(5), kids2[0].random(5)
        )


class TestDerive:
    def test_addressable_and_order_free(self):
        a = derive(5, 3, 7).random()
        _noise = derive(5, 9, 9).random()
        b = derive(5, 3, 7).random()
        assert a == b

    def test_distinct_keys_distinct_streams(self):
        assert derive(5, 1).random() != derive(5, 2).random()

    def test_distinct_seeds_distinct_streams(self):
        assert derive(1, 0).random() != derive(2, 0).random()


class TestChoice:
    def test_distinct_selection(self):
        rng = make_rng(0)
        out = choice_without_replacement(rng, list(range(10)), 5)
        assert len(set(out.tolist())) == 5

    def test_oversized_request_raises(self):
        with pytest.raises(ValueError, match="pool"):
            choice_without_replacement(make_rng(0), [1, 2], 3)

    def test_full_pool(self):
        out = choice_without_replacement(make_rng(0), [4, 5, 6], 3)
        assert sorted(out.tolist()) == [4, 5, 6]
