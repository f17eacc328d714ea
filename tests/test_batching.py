"""Tests for minibatch construction."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import chunk_bounds, iterate_batches, iterate_chunks
from repro.graph.edgelist import EdgeList


def _mixed_edges(n=100, n_rel=3, seed=0):
    rng = np.random.default_rng(seed)
    return EdgeList(
        rng.integers(0, 50, n),
        rng.integers(0, n_rel, n),
        rng.integers(0, 50, n),
    )


def _per_relation(batch_size, n_rel=3):
    """The packing under which a relation is its own group: the batches
    of the time a batch held one relation."""
    return dict(chunk_size=batch_size, groups=np.arange(n_rel))


def _parent_iterate_batches(edges, batch_size, rng):
    """``iterate_batches`` as it stood while a batch held one relation
    (frozen copy of the grouped path)."""
    batches = []
    for _, rel_edges in sorted(edges.group_by_relation().items()):
        shuffled = rel_edges.shuffled(rng)
        for lo in range(0, len(shuffled), batch_size):
            batches.append(shuffled[lo : lo + batch_size])
    for i in rng.permutation(len(batches)):
        yield batches[i]


def _bucket_edges(n=4571, n_rel=20, seed=0):
    """A ``distributed_kg`` bucket: relation ``r`` has a 1/r share."""
    rng = np.random.default_rng(seed)
    share = 1.0 / np.arange(1, n_rel + 1)
    return EdgeList(
        rng.integers(0, 16_250, n),
        rng.choice(n_rel, n, p=share / share.sum()),
        rng.integers(0, 16_250, n),
    )


class TestIterateBatches:
    def test_grouped_batches_single_relation(self):
        """A batch mixes the relations of its group only, and every
        chunk the model cuts from it holds a single relation — with
        one group per relation a batch holds one relation."""
        edges = _mixed_edges()
        for batch in iterate_batches(
            edges, 16, np.random.default_rng(0), **_per_relation(16)
        ):
            assert batch.rel.min() == batch.rel.max()
        groups = np.asarray([0, 1, 0])
        batches = list(iterate_batches(
            edges, 16, np.random.default_rng(0), chunk_size=4, groups=groups
        ))
        assert any(b.rel.min() != b.rel.max() for b in batches)
        for batch in batches:
            assert len(set(groups[batch.rel])) == 1
            for rid, chunk in iterate_chunks(batch, 4):
                assert np.all(chunk.rel == rid) and len(chunk) <= 4

    def test_one_relation_list_is_the_parent_batcher(self):
        """Same batches from the same draws, whatever the chunk size."""
        rng = np.random.default_rng(3)
        edges = EdgeList(
            rng.integers(0, 50, 103), np.full(103, 2), rng.integers(0, 50, 103),
            rng.random(103) + 0.5,
        )
        for chunk_size in (4, 5, 16, 200):
            rng_new, rng_old = np.random.default_rng(7), np.random.default_rng(7)
            got = list(iterate_batches(
                edges, 16, rng_new, chunk_size=chunk_size, groups=np.zeros(3, int)
            ))
            want = list(_parent_iterate_batches(edges, 16, rng_old))
            assert got == want
            assert rng_new.random() == rng_old.random()

    def test_kg_bucket_packs_into_full_batches_quickly(self):
        edges = _bucket_edges()
        groups = np.zeros(20, dtype=np.int64)
        rng = np.random.default_rng(1)
        batches = list(iterate_batches(edges, 1000, rng, chunk_size=100, groups=groups))
        assert sorted(map(len, batches)) == [571, 1000, 1000, 1000, 1000]
        # Equal-width chunks are neighbours: the full chunks are one
        # run per batch, only the tails (one per relation) stand alone.
        widths = [np.diff(chunk_bounds(b.rel, 100)) for b in batches]
        assert sum(len(w) for w in widths) <= 4571 // 100 + 20
        assert sum(np.all(w == 100) for w in widths) >= 3
        # ... and the batcher stays cheap (0.49 ms when it cut one
        # batch list per relation); the best of many, for a busy box.
        best = min(
            _timed(lambda: list(iterate_batches(
                edges, 1000, rng, chunk_size=100, groups=groups
            )))
            for _ in range(50)
        )
        assert best < 0.6e-3, best

    def test_all_edges_covered(self):
        edges = _mixed_edges()
        seen = []
        for batch in iterate_batches(
            edges, 16, np.random.default_rng(0), **_per_relation(16)
        ):
            seen.extend(list(batch))
        assert sorted(seen) == sorted(list(edges))

    def test_ungrouped_covers_all(self):
        edges = _mixed_edges()
        seen = []
        for batch in iterate_batches(
            edges, 16, np.random.default_rng(0), group_by_relation=False,
            **_per_relation(16),
        ):
            assert len(batch) <= 16
            # Shuffle and slice, then sorted into relation runs.
            assert np.all(np.diff(batch.rel) >= 0)
            seen.extend(list(batch))
        assert sorted(seen) == sorted(list(edges))

    def test_batch_size_respected(self):
        edges = _mixed_edges()
        sizes = [
            len(b)
            for b in iterate_batches(
                edges, 7, np.random.default_rng(0), **_per_relation(7)
            )
        ]
        assert max(sizes) <= 7

    def test_empty_edges(self):
        assert list(iterate_batches(
            EdgeList.empty(), 4, np.random.default_rng(0), **_per_relation(4)
        )) == []

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iterate_batches(
                _mixed_edges(), 0, np.random.default_rng(0), **_per_relation(1)
            ))

    def test_batches_shuffled_across_relations(self):
        """Relations and groups must interleave, not run in id order."""
        edges = _mixed_edges(n=600, n_rel=3)
        rel_sequence = [
            int(b.rel[0])
            for b in iterate_batches(
                edges, 10, np.random.default_rng(1), **_per_relation(10)
            )
        ]
        assert rel_sequence != sorted(rel_sequence)
        groups = np.asarray([0, 1, 1])
        group_sequence = [
            int(groups[b.rel[0]])
            for b in iterate_batches(
                edges, 10, np.random.default_rng(1), chunk_size=5, groups=groups
            )
        ]
        assert group_sequence != sorted(group_sequence)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(0, 100),
        bs=st.integers(1, 20),
        seed=st.integers(0, 1000),
    )
    def test_edge_conservation_property(self, n, bs, seed):
        edges = _mixed_edges(n=n, seed=seed)
        total = sum(
            len(b)
            for b in iterate_batches(
                edges, bs, np.random.default_rng(seed), **_per_relation(bs)
            )
        )
        assert total == n


    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 300),
        n_rel=st.integers(1, 7),
        n_groups=st.integers(1, 3),
        bs=st.integers(1, 40),
        cs=st.integers(1, 45),
        weighted=st.booleans(),
        seed=st.integers(0, 1000),
    )
    def test_packing_property(self, n, n_rel, n_groups, bs, cs, weighted, seed):
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, n_groups, n_rel)
        src = np.arange(n)  # an edge is known by its source
        edges = EdgeList(
            src, rng.integers(0, n_rel, n), rng.integers(0, 50, n),
            rng.random(n) + 0.5 if weighted else None,
        )
        batches = list(iterate_batches(
            edges, bs, np.random.default_rng(seed), chunk_size=cs, groups=groups
        ))
        if n == 0:
            assert batches == []
            return
        # Every edge exactly once, with its relation, endpoint and weight.
        seen = EdgeList.concat(batches)
        assert sorted(seen.src.tolist()) == src.tolist()
        assert seen == edges[seen.src]
        short = {}
        for batch in batches:
            assert 1 <= len(batch) <= bs
            (group,) = set(groups[batch.rel].tolist())
            short[group] = short.get(group, 0) + (len(batch) < bs)
            chunks = list(iterate_chunks(batch, cs))
            assert sum(len(c) for _, c in chunks) == len(batch)
            for rid, chunk in chunks:
                assert np.all(chunk.rel == rid) and 1 <= len(chunk) <= cs
        # All batches of a group but its last are full.
        assert all(count <= 1 for count in short.values())


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestIterateChunks:
    def test_single_relation_sliced(self):
        rng = np.random.default_rng(0)
        edges = EdgeList(
            rng.integers(0, 10, 23),
            np.full(23, 2, dtype=np.int64),
            rng.integers(0, 10, 23),
        )
        chunks = list(iterate_chunks(edges, 5))
        assert [len(c) for _, c in chunks] == [5, 5, 5, 5, 3]
        assert all(rid == 2 for rid, _ in chunks)

    def test_mixed_relations_subgrouped(self):
        edges = _mixed_edges(n=50)
        chunks = list(iterate_chunks(edges, 8))
        for rid, chunk in chunks:
            assert np.all(chunk.rel == rid)
        total = sum(len(c) for _, c in chunks)
        assert total == 50

    def test_chunks_are_relation_runs_cut_at_chunk_size(self):
        rel = np.asarray([1] * 7 + [0] * 3 + [1] * 2)
        assert chunk_bounds(rel, 3) == [0, 3, 6, 7, 10, 12]
        assert chunk_bounds(rel[:0], 3) == [0]
        batch = EdgeList(np.arange(12), rel, np.arange(12))
        assert [(r, c.src.tolist()) for r, c in iterate_chunks(batch, 5)] == [
            (1, [0, 1, 2, 3, 4]), (1, [5, 6]), (0, [7, 8, 9]), (1, [10, 11]),
        ]

    def test_empty(self):
        assert list(iterate_chunks(EdgeList.empty(), 4)) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(iterate_chunks(_mixed_edges(), 0))
