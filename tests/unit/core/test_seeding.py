"""Unit tests for deterministic seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seeding import (
    PCG64Writer,
    pcg64_seed_table,
    pcg64_states,
    rng_for,
    run_key,
    seed_from_key,
    site_seeds,
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


class TestSiteSeeds:
    """A stream's sites hashed from one prefix are the seeds the per-site
    keys give, for each of the kernels' four streams."""

    ROOT = "root-seed"
    CONFIG, NAME, MACHINE, SENSOR = "i7_45/4C2T@2.66-TB", "mcf", "i7_45", "i7_45/hall"

    @pytest.mark.parametrize("stream", ["time", "power", "supply", "sensor-read"])
    def test_prefix_seeds_equal_per_site_keys(self, stream):
        count = 23
        if stream in ("time", "power"):
            parts = (self.ROOT, stream, self.NAME, self.CONFIG)
        else:
            machine = self.MACHINE if stream == "supply" else self.SENSOR
            parts = (stream, machine, self.CONFIG, self.NAME)
        seeds = site_seeds(run_key(*parts) + "/", count)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [
            seed_from_key(run_key(*parts, i)) for i in range(count)
        ]

    def test_empty_run(self):
        assert site_seeds("k/", 0).shape == (0,)

    @pytest.mark.parametrize("count", [0, 1, 10, 101])
    def test_counts_equal_per_site_keys(self, count):
        """Each site copies the prefix's hasher: one- to three-digit
        indices give the seeds their whole keys give."""
        prefix = run_key(self.ROOT, "time", self.NAME, self.CONFIG) + "/"
        seeds = site_seeds(prefix, count)
        assert seeds.dtype == np.uint64 and seeds.shape == (count,)
        assert seeds.tolist() == [seed_from_key(f"{prefix}{i}") for i in range(count)]


#: Both sides of the one-word/two-word boundary, and the range's ends.
EDGE_SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1)


def _python_state(words) -> list[int]:
    """PCG64's seeding step on one row of seeding words, in Python ints:
    the reference :func:`pcg64_states` must equal limb for limb."""
    w0, w1, w2, w3 = map(int, words)
    mult = (2549297995355413924 << 64) + 4865540595714422341
    mask = (1 << 128) - 1
    inc = (((w2 << 64) | w3) << 1 | 1) & mask
    state = ((inc + ((w0 << 64) | w1)) * mult + inc) & mask
    low = (1 << 64) - 1
    return [state >> 64, state & low, inc >> 64, inc & low]


def _start(writer: PCG64Writer, row) -> np.random.Generator:
    """Write a :func:`pcg64_states` row into ``writer``'s generator, the
    way the kernels do: permuted into the view's word order, then
    assigned."""
    writer.view[:] = np.asarray(row, dtype=np.uint64)[writer.order]
    return writer.generator


def _state(row) -> tuple[int, int]:
    state = _start(PCG64Writer(), row).bit_generator.state
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
        table = pcg64_states(pcg64_seed_table(EDGE_SEEDS)).tolist()
        for seed, row in zip(EDGE_SEEDS, table):
            assert _state(row) == _numpy_state(seed), seed

    def test_edge_state_rows_equal_the_python_int_step(self):
        words = pcg64_seed_table(EDGE_SEEDS)
        states = pcg64_states(words)
        assert states.shape == (len(EDGE_SEEDS), 4)
        assert states.dtype == np.uint64
        assert states.tolist() == [_python_state(row) for row in words.tolist()]

    def test_state_rows_carry_across_limbs(self):
        """All-ones and all-zero words push every carry and wrap of the
        limb arithmetic."""
        ones = 2**64 - 1
        words = [[ones] * 4, [0] * 4, [ones, 0, ones, 0], [0, ones, 0, ones]]
        assert pcg64_states(np.array(words, dtype=np.uint64)).tolist() == [
            _python_state(row) for row in words
        ]

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
        words = pcg64_seed_table(batch)
        assert words.shape == (len(batch), 4)
        table = pcg64_states(words).tolist()
        assert table == [_python_state(row) for row in words.tolist()]
        for seed, row in zip(batch, table):
            assert _state(row) == _numpy_state(seed), seed

    @pytest.mark.parametrize("seed", EDGE_SEEDS + (seed_from_key("sensor/i7"),))
    def test_reseeded_generator_draws_like_default_rng(self, seed):
        row = pcg64_states(pcg64_seed_table([seed]))[0]
        writer = PCG64Writer()
        writer.generator.normal(size=3)  # an earlier stream must not leak through
        assert _start(writer, row).lognormal(mean=0.0, sigma=0.1) == (
            np.random.default_rng(seed).lognormal(mean=0.0, sigma=0.1)
        )
        assert np.array_equal(
            _start(writer, row).normal(0.0, 0.3, size=257),
            np.random.default_rng(seed).normal(0.0, 0.3, size=257),
        )

    def test_reseed_accepts_numpy_and_int_rows(self):
        table = pcg64_states(pcg64_seed_table([2**40 + 7]))
        assert _state(table[0]) == _state(table.tolist()[0])

    def test_empty_batch_gives_empty_table(self):
        table = pcg64_seed_table([])
        assert table.shape == (0, 4)
        assert table.dtype == np.uint64


class TestPCG64Writer:
    """The writer's view is numpy's private state struct; building one
    must prove the layout or refuse."""

    def test_order_is_a_limb_permutation(self):
        writer = PCG64Writer()
        assert sorted(writer.order) == [0, 1, 2, 3]
        assert writer.view.dtype == np.uint64 and writer.view.shape == (4,)

    def test_unmatched_probe_read_back_refuses(self, monkeypatch):
        """A build whose state getter does not read back the probe the
        view wrote must fail loudly, naming the numpy version.  The
        first read (the words as built) is left intact."""
        reads: list[int] = []

        class Misread(np.random.PCG64):
            @property
            def state(self):
                state = super().state
                if reads:
                    state["state"]["inc"] ^= 1 << 70
                reads.append(1)
                return state

        monkeypatch.setattr(np.random, "PCG64", Misread)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            PCG64Writer()
        assert len(reads) == 2  # the probe was written and read back

    def test_buffered_half_draw_refuses(self, monkeypatch):
        class Buffered(np.random.PCG64):
            @property
            def state(self):
                return dict(super().state, has_uint32=1, uinteger=7)

        monkeypatch.setattr(np.random, "PCG64", Buffered)
        with pytest.raises(RuntimeError, match="round-trip"):
            PCG64Writer()
