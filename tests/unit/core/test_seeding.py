"""Unit tests for deterministic seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seeding import (
    pcg64_seed_table,
    reseed,
    rng_for,
    run_key,
    seed_from_key,
)


class TestSeeds:
    def test_same_key_same_seed(self):
        assert seed_from_key("a") == seed_from_key("a")

    def test_different_keys_differ(self):
        assert seed_from_key("a") != seed_from_key("b")

    def test_root_changes_seed(self):
        assert seed_from_key("a", root="x") != seed_from_key("a", root="y")

    def test_seed_fits_64_bits(self):
        assert 0 <= seed_from_key("anything") < 2**64


class TestGenerators:
    def test_identical_streams_for_same_key(self):
        a = rng_for("sensor/i7").normal(size=10)
        b = rng_for("sensor/i7").normal(size=10)
        assert (a == b).all()

    def test_independent_streams_for_different_keys(self):
        a = rng_for("sensor/i7").normal(size=10)
        b = rng_for("sensor/i5").normal(size=10)
        assert (a != b).any()


class TestRunKey:
    def test_joins_parts(self):
        assert run_key("a", 1, 2.5) == "a/1/2.5"

    def test_distinct_structures_distinct_keys(self):
        assert run_key("a", "b/c") != run_key("a", "b", "d")


#: Both sides of the one-word/two-word boundary, and the range's ends.
EDGE_SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1)


def _state(row) -> tuple[int, int]:
    generator = reseed(np.random.Generator(np.random.PCG64(0)), row)
    state = generator.bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] == 0
    return state["state"]["state"], state["state"]["inc"]


def _numpy_state(seed: int) -> tuple[int, int]:
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


class TestBatchedSeeding:
    """The batched seeding path must put a generator exactly where
    numpy's own seeding does.  Every assertion compares against the
    installed numpy, so a release that changes its seeding fails here
    instead of silently moving the kernels' bytes."""

    def test_table_shape_and_dtype(self):
        table = pcg64_seed_table(EDGE_SEEDS)
        assert table.shape == (len(EDGE_SEEDS), 4)
        assert table.dtype == np.uint64

    def test_table_rows_are_seed_sequence_words(self):
        table = pcg64_seed_table(EDGE_SEEDS)
        for seed, row in zip(EDGE_SEEDS, table):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(row, expected)

    def test_edge_seeds_match_pcg64_in_one_batch(self):
        table = pcg64_seed_table(EDGE_SEEDS).tolist()
        for seed, row in zip(EDGE_SEEDS, table):
            assert _state(row) == _numpy_state(seed), seed

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300),
        one_word=st.integers(0, 2**32 - 1),
        two_word=st.integers(2**32, 2**64 - 1),
        at=st.integers(0, 300),
    )
    def test_random_batches_match_pcg64(self, seeds, one_word, two_word, at):
        # Both seed widths sit in every batch, at a drawn position.
        batch = seeds[:at] + [one_word, two_word] + seeds[at:]
        table = pcg64_seed_table(batch)
        assert table.shape == (len(batch), 4)
        for seed, row in zip(batch, table.tolist()):
            assert _state(row) == _numpy_state(seed), seed

    @pytest.mark.parametrize("seed", EDGE_SEEDS + (seed_from_key("sensor/i7"),))
    def test_reseeded_generator_draws_like_default_rng(self, seed):
        row = pcg64_seed_table([seed])[0]
        generator = np.random.Generator(np.random.PCG64(12345))
        generator.normal(size=3)  # an earlier stream must not leak through
        assert reseed(generator, row).lognormal(mean=0.0, sigma=0.1) == (
            np.random.default_rng(seed).lognormal(mean=0.0, sigma=0.1)
        )
        assert np.array_equal(
            reseed(generator, row).normal(0.0, 0.3, size=257),
            np.random.default_rng(seed).normal(0.0, 0.3, size=257),
        )

    def test_reseed_accepts_numpy_and_int_rows(self):
        table = pcg64_seed_table([2**40 + 7])
        assert _state(table[0]) == _state(table.tolist()[0])

    def test_empty_batch_gives_empty_table(self):
        table = pcg64_seed_table([])
        assert table.shape == (0, 4)
        assert table.dtype == np.uint64
