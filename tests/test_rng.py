"""Tests for seeded randomness helpers."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import rng as rng_module


class TestMakeRng:
    def test_int_seed_deterministic(self):
        assert rng_module.make_rng(7).random() == rng_module.make_rng(7).random()

    def test_random_instance_passthrough(self):
        instance = random.Random(1)
        assert rng_module.make_rng(instance) is instance

    def test_none_gives_generator(self):
        assert isinstance(rng_module.make_rng(None), random.Random)


class TestDeriveSeed:
    def test_deterministic_for_int_master(self):
        assert rng_module.derive_seed(5, 3) == rng_module.derive_seed(5, 3)

    def test_differs_across_indices(self):
        seeds = {rng_module.derive_seed(5, i) for i in range(100)}
        assert len(seeds) == 100

    def test_spawn_rngs_are_independent(self):
        values = {rng_module.spawn_rng(9, i).random() for i in range(50)}
        assert len(values) == 50


class TestSpawnRngs:
    """``spawn_rngs`` must equal ``[spawn_rng(m, i) ...]`` bit for bit.

    Both the small-count Python path and the batched numpy + C-seed path
    (count >= 1024) are pinned through ``getstate()``, which captures the
    full 624-word Mersenne state plus ``gauss_next`` — if the batched seed
    arithmetic or the direct C-layer construction ever diverged from
    ``random.Random(derive_seed(...))``, these comparisons would fail.
    """

    @pytest.mark.parametrize("master", [0, 9, -7, 2**80 + 123])
    @pytest.mark.parametrize("count", [0, 1, 50, 1500])
    def test_identical_to_spawn_rng_loop(self, master, count):
        batched = rng_module.spawn_rngs(master, count)
        reference = [rng_module.spawn_rng(master, i) for i in range(count)]
        assert len(batched) == count
        assert [r.getstate() for r in batched] == \
               [r.getstate() for r in reference]

    def test_batched_generators_draw_identically(self):
        batched = rng_module.spawn_rngs(3, 1500)
        reference = [rng_module.spawn_rng(3, i) for i in range(1500)]
        assert [r.randrange(2**62) for r in batched] == \
               [r.randrange(2**62) for r in reference]
        # gauss() exercises the gauss_next slot the fast path resets by hand.
        assert [r.gauss(0, 1) for r in batched[:32]] == \
               [r.gauss(0, 1) for r in reference[:32]]

    def test_random_master_keeps_per_index_draws(self):
        batched = rng_module.spawn_rngs(random.Random(42), 20)
        # A Random master draws a fresh base per index, so generator state
        # advances between spawns; replaying the same draws reproduces it.
        replay = random.Random(42)
        reference = [rng_module.spawn_rng(replay, i) for i in range(20)]
        assert [r.getstate() for r in batched] == \
               [r.getstate() for r in reference]

    def test_none_master_gives_distinct_generators(self):
        rngs = rng_module.spawn_rngs(None, 8)
        assert len(rngs) == 8
        assert all(isinstance(r, random.Random) for r in rngs)
        assert len({r.random() for r in rngs}) == 8


class TestFixNodeSeeds:
    """A ``Random`` or ``None`` master fixed once spawns the same streams
    as often as needed: the streams one spawn from the master gives."""

    def _states(self, master, count):
        return [r.getstate() for r in rng_module.spawn_rngs(master, count)]

    def test_random_master_fixes_the_streams_of_one_spawn(self):
        seeds = rng_module.fix_node_seeds(random.Random(42), 20)
        assert isinstance(seeds, tuple) and len(seeds) == 20
        reference = self._states(random.Random(42), 20)
        assert self._states(seeds, 20) == reference
        assert self._states(seeds, 20) == reference
        assert [rng_module.spawn_rng(seeds, i).getstate()
                for i in range(20)] == reference

    def test_none_master_is_fixed_once(self):
        seeds = rng_module.fix_node_seeds(None, 8)
        assert len(seeds) == 8
        assert self._states(seeds, 8) == self._states(seeds, 8)

    @pytest.mark.parametrize("master", [0, 17, 2**80 + 123])
    def test_int_master_is_kept(self, master):
        assert rng_module.fix_node_seeds(master, 1500) == master


class TestRandomUniqueIds:
    def test_ids_are_unique_and_in_range(self):
        ids = rng_module.random_unique_ids(50, 1000, random.Random(1))
        assert len(set(ids)) == 50
        assert all(1 <= i <= 1000 for i in ids)

    def test_dense_space(self):
        ids = rng_module.random_unique_ids(10, 10, random.Random(2))
        assert sorted(ids) == list(range(1, 11))

    def test_impossible_request_rejected(self):
        with pytest.raises(ValueError):
            rng_module.random_unique_ids(11, 10)


class TestReplayStream:
    """``replay_stream(seed)`` must replay ``random.Random(seed).random()``
    draw for draw: the gnp and rgg builders rely on it to draw exactly
    the numbers networkx's generators drew."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**40 + 5])
    def test_matches_python_random(self, seed):
        reference = random.Random(seed)
        assert rng_module.replay_stream(seed).random(3000).tolist() == \
               [reference.random() for _ in range(3000)]

    def test_blocks_continue_the_stream(self):
        stream = rng_module.replay_stream(11)
        reference = random.Random(11)
        buffer = np.empty(700)
        drawn = []
        for size in (1, 623, 624, 625, 700, 3):
            stream.random(out=buffer[:size])
            drawn.extend(buffer[:size].tolist())
        assert drawn == [reference.random() for _ in range(len(drawn))]
