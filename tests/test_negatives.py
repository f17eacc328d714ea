"""Tests for batched / unbatched negative sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.negatives import (
    PrevalenceSampler,
    sample_pool,
    sample_unbatched,
)


class TestSamplePool:
    def test_reuses_chunk_when_counts_match(self):
        """num_batch_negs == chunk size → the chunk itself is the pool."""
        rng = np.random.default_rng(0)
        chunk = np.asarray([7, 8, 9])
        pool = sample_pool(chunk, chunk, 100, 3, 0, rng)
        np.testing.assert_array_equal(pool.entities, chunk)

    def test_pool_composition_sizes(self):
        rng = np.random.default_rng(1)
        chunk = np.arange(5)
        pool = sample_pool(chunk, chunk, 50, 5, 7, rng)
        assert pool.num_candidates == 12
        assert pool.mask.shape == (5, 12)

    def test_mask_excludes_induced_positives(self):
        """The paper's Figure 3: the true endpoint is masked per edge."""
        rng = np.random.default_rng(2)
        chunk = np.asarray([1, 2, 3])
        pool = sample_pool(chunk, chunk, 10, 3, 0, rng)
        # entity j == true entity of edge i exactly on the diagonal here
        np.testing.assert_array_equal(
            pool.mask, ~np.eye(3, dtype=bool)
        )

    def test_mask_catches_duplicate_entities(self):
        """If an entity appears twice in the chunk, both pool slots are
        masked for an edge whose truth is that entity."""
        rng = np.random.default_rng(3)
        chunk = np.asarray([4, 4, 5])
        pool = sample_pool(chunk, chunk, 10, 3, 0, rng)
        assert not pool.mask[0, 0] and not pool.mask[0, 1]
        assert not pool.mask[1, 0] and not pool.mask[1, 1]
        assert pool.mask[2, 0] and pool.mask[2, 1] and not pool.mask[2, 2]

    def test_uniform_negatives_in_range(self):
        rng = np.random.default_rng(4)
        chunk = np.asarray([0])
        pool = sample_pool(chunk, chunk, 17, 0, 1000, rng)
        assert pool.entities.min() >= 0 and pool.entities.max() < 17

    def test_subsampled_batch_negatives_from_chunk(self):
        rng = np.random.default_rng(5)
        chunk = np.asarray([10, 20, 30])
        pool = sample_pool(chunk, chunk, 100, 7, 0, rng)
        assert pool.num_candidates == 7
        assert set(pool.entities.tolist()) <= {10, 20, 30}

    def test_empty_pool_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_pool(np.asarray([1]), np.asarray([1]), 10, 0, 0, rng)

    def test_negative_counts_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            sample_pool(np.asarray([1]), np.asarray([1]), 10, -1, 5, rng)

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.integers(1, 10),
        nb=st.integers(0, 10),
        nu=st.integers(0, 10),
        n=st.integers(2, 50),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_mask_correctness_property(self, c, nb, nu, n, seed):
        """mask[i, j] is False exactly when pool[j] == truth[i]."""
        if nb == 0 and nu == 0:
            return
        rng = np.random.default_rng(seed)
        chunk = rng.integers(0, n, size=c)
        pool = sample_pool(chunk, chunk, n, nb, nu, rng)
        expect = pool.entities[None, :] != chunk[:, None]
        np.testing.assert_array_equal(pool.mask, expect)


class TestSamplePoolPerChunkOfABatch:
    """``(n, c)`` entities in: one pool per row, drawn in one call."""

    def test_shapes(self):
        chunks = np.arange(12).reshape(3, 4)
        pool = sample_pool(chunks, chunks, 50, 2, 5, np.random.default_rng(0))
        assert pool.entities.shape == (3, 7)
        assert pool.mask.shape == (3, 4, 7)
        assert pool.num_candidates == 7

    @pytest.mark.parametrize("num_batch_negs", [4, 6], ids=["reuse", "draw"])
    def test_one_chunk_is_the_flat_call(self, num_batch_negs):
        """Same values from the same stream: what keeps a one-chunk
        batch step bit-identical to a chunk step."""
        chunk = np.asarray([3, 1, 4, 1])
        rng_flat, rng_batch = np.random.default_rng(5), np.random.default_rng(5)
        flat = sample_pool(chunk, chunk, 9, num_batch_negs, 5, rng_flat)
        batch = sample_pool(
            chunk[None], chunk[None], 9, num_batch_negs, 5, rng_batch
        )
        np.testing.assert_array_equal(batch.entities, flat.entities[None])
        np.testing.assert_array_equal(batch.mask, flat.mask[None])
        assert rng_flat.random() == rng_batch.random()

    def test_reused_chunks_are_the_stacked_flat_calls(self):
        """With the chunk as its own pool only the uniform draws use the
        stream, and ``(n, u)`` of them are ``n`` draws of ``u``."""
        rng = np.random.default_rng(1)
        chunks = rng.integers(0, 20, size=(4, 3))
        rng_flat, rng_batch = np.random.default_rng(2), np.random.default_rng(2)
        batch = sample_pool(chunks, chunks, 20, 3, 6, rng_batch)
        for i, chunk in enumerate(chunks):
            flat = sample_pool(chunk, chunk, 20, 3, 6, rng_flat)
            np.testing.assert_array_equal(batch.entities[i], flat.entities)
            np.testing.assert_array_equal(batch.mask[i], flat.mask)

    def test_batch_negatives_come_from_the_own_chunk(self):
        chunks = np.asarray([[10, 11, 12], [20, 21, 22]])
        pool = sample_pool(chunks, chunks, 100, 8, 0, np.random.default_rng(3))
        assert set(pool.entities[0].tolist()) <= {10, 11, 12}
        assert set(pool.entities[1].tolist()) <= {20, 21, 22}

    def test_induced_positives_are_masked_within_their_chunk_only(self):
        """Entity 8 ends an edge of both chunks; entity 7 only of the
        first. In the second chunk's pool a 7 is an ordinary negative."""
        chunks = np.asarray([[7, 8], [8, 9]])
        rng = np.random.default_rng(4)
        pool = sample_pool(chunks, chunks, 10, 2, 0, rng)
        np.testing.assert_array_equal(pool.entities, chunks)
        np.testing.assert_array_equal(
            pool.mask, np.stack([~np.eye(2, dtype=bool)] * 2)
        )
        # Now with uniform candidates that collide across chunks.
        pool = sample_pool(chunks, chunks, 10, 0, 200, rng)
        for i in range(2):
            other = np.setdiff1d(chunks[1 - i], chunks[i])
            hits = np.isin(pool.entities[i], other)
            assert hits.any()
            assert pool.mask[i][:, hits].all()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 4),
        c=st.integers(1, 6),
        nb=st.integers(0, 8),
        nu=st.integers(0, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_mask_correctness_property(self, n, c, nb, nu, seed):
        """mask[i, e, j] is False exactly when pool[i, j] == truth[i, e]."""
        if nb == 0 and nu == 0:
            return
        rng = np.random.default_rng(seed)
        chunks = rng.integers(0, 12, size=(n, c))
        pool = sample_pool(chunks, chunks, 12, nb, nu, rng)
        for i in range(n):
            np.testing.assert_array_equal(
                pool.mask[i], pool.entities[i][None, :] != chunks[i][:, None]
            )


class TestSampleUnbatched:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        true = np.asarray([1, 2, 3, 4])
        negs = sample_unbatched(true, 100, 7, rng)
        assert negs.entities.shape == (4, 7)
        assert negs.mask.shape == (4, 7)

    def test_mask_blocks_collisions(self):
        rng = np.random.default_rng(1)
        true = np.zeros(50, dtype=np.int64)
        negs = sample_unbatched(true, 2, 10, rng)
        np.testing.assert_array_equal(negs.mask, negs.entities != 0)

    def test_invalid_args(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            sample_unbatched(np.asarray([1]), 10, 0, rng)
        with pytest.raises(ValueError):
            sample_unbatched(np.asarray([1]), 0, 5, rng)


class TestPrevalenceSampler:
    def test_respects_frequencies(self):
        counts = np.asarray([1000, 0, 10])
        sampler = PrevalenceSampler(counts)
        rng = np.random.default_rng(0)
        draws = sampler.sample(20_000, rng)
        freq = np.bincount(draws, minlength=3) / len(draws)
        assert freq[0] > 0.95
        assert freq[1] == 0.0
        assert freq[2] > 0.0

    def test_from_edges_degree_weighting(self):
        src = np.asarray([0, 0, 0, 1])
        dst = np.asarray([1, 1, 2, 2])
        sampler = PrevalenceSampler.from_edges(src, dst, 4)
        rng = np.random.default_rng(1)
        draws = sampler.sample(10_000, rng)
        freq = np.bincount(draws, minlength=4)
        assert freq[0] > freq[3] == 0
        assert freq[2] > 0

    def test_tuple_size(self):
        sampler = PrevalenceSampler(np.ones(5))
        draws = sampler.sample((3, 4), np.random.default_rng(2))
        assert draws.shape == (3, 4)
        assert draws.min() >= 0 and draws.max() < 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PrevalenceSampler(np.zeros(3))
        with pytest.raises(ValueError):
            PrevalenceSampler(np.asarray([-1.0, 2.0]))
        with pytest.raises(ValueError):
            PrevalenceSampler(np.empty(0))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**31 - 1))
    def test_draws_in_range(self, n, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 100, size=n) + (np.arange(n) == 0)
        counts[0] += 1  # ensure positive total
        sampler = PrevalenceSampler(counts)
        draws = sampler.sample(100, rng)
        assert draws.min() >= 0 and draws.max() < n
        # Zero-count entities are never drawn.
        zero = np.flatnonzero(counts == 0)
        assert not np.isin(draws, zero).any()
