"""Tests for entity partitioning and edge bucketing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import bucket_edges, partition_entities


class TestPartitionEntities:
    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(1, 500),
        nparts=st.integers(1, 16),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bijection_and_balance(self, count, nparts, seed):
        if nparts > count:
            return
        p = partition_entities(count, nparts, np.random.default_rng(seed))
        # Every entity appears exactly once across partitions.
        seen = np.concatenate(p.global_of)
        assert sorted(seen.tolist()) == list(range(count))
        # Balance: sizes differ by at most 1.
        assert p.part_sizes.max() - p.part_sizes.min() <= 1
        assert p.part_sizes.sum() == count
        # (part, offset) <-> global consistency.
        for g in range(count):
            part, off = int(p.part_of[g]), int(p.offset_of[g])
            assert p.global_of[part][off] == g

    def test_too_many_partitions(self):
        with pytest.raises(ValueError):
            partition_entities(3, 5, np.random.default_rng(0))

    def test_to_local_to_global_roundtrip(self):
        p = partition_entities(20, 4, np.random.default_rng(1))
        ids = np.arange(20)
        parts, offs = p.to_local(ids)
        for part in range(4):
            mask = parts == part
            back = p.to_global(part, offs[mask])
            np.testing.assert_array_equal(back, ids[mask])


def _setup(nparts, num_nodes=40, num_edges=200, seed=0):
    config = ConfigSchema(
        entities={"node": EntitySchema(num_partitions=nparts)},
        relations=[
            RelationSchema(name="a", lhs="node", rhs="node"),
            RelationSchema(name="b", lhs="node", rhs="node"),
        ],
        dimension=4,
    )
    entities = EntityStorage({"node": num_nodes})
    entities.set_partitioning(
        "node",
        partition_entities(num_nodes, nparts, np.random.default_rng(seed)),
    )
    rng = np.random.default_rng(seed + 1)
    edges = EdgeList(
        rng.integers(0, num_nodes, num_edges),
        rng.integers(0, 2, num_edges),
        rng.integers(0, num_nodes, num_edges),
    )
    return config, entities, edges


class TestBucketEdges:
    @settings(max_examples=15, deadline=None)
    @given(nparts=st.integers(1, 6), seed=st.integers(0, 1000))
    def test_every_edge_in_exactly_one_bucket(self, nparts, seed):
        config, entities, edges = _setup(nparts, seed=seed)
        bucketed = bucket_edges(edges, config, entities)
        assert bucketed.num_edges() == len(edges)
        assert bucketed.nparts_lhs == nparts
        assert bucketed.nparts_rhs == nparts

    def test_bucket_assignment_correct(self):
        config, entities, edges = _setup(4)
        bucketed = bucket_edges(edges, config, entities)
        p = entities.partitioning("node")
        for (bl, br), bucket in bucketed.buckets.items():
            # Recover global ids from partition-local offsets.
            srcs = p.to_global(bl, bucket.src)
            dsts = p.to_global(br, bucket.dst)
            np.testing.assert_array_equal(p.part_of[srcs], bl)
            np.testing.assert_array_equal(p.part_of[dsts], br)

    def test_local_offsets_in_range(self):
        config, entities, edges = _setup(3)
        bucketed = bucket_edges(edges, config, entities)
        for (bl, br), bucket in bucketed.buckets.items():
            assert bucket.src.max() < entities.part_size("node", bl)
            assert bucket.dst.max() < entities.part_size("node", br)

    def test_relations_preserved(self):
        config, entities, edges = _setup(2)
        bucketed = bucket_edges(edges, config, entities)
        total_by_rel = np.zeros(2, dtype=int)
        for bucket in bucketed.buckets.values():
            total_by_rel += np.bincount(bucket.rel, minlength=2)
        np.testing.assert_array_equal(
            total_by_rel, np.bincount(edges.rel, minlength=2)
        )

    def test_weights_carried(self):
        config, entities, edges = _setup(2)
        w = np.random.default_rng(5).random(len(edges)) + 0.1
        edges = EdgeList(edges.src, edges.rel, edges.dst, w)
        bucketed = bucket_edges(edges, config, entities)
        total_w = sum(b.weights.sum() for b in bucketed.buckets.values())
        assert total_w == pytest.approx(w.sum())

    def test_single_partition_single_bucket(self):
        config, entities, edges = _setup(1)
        bucketed = bucket_edges(edges, config, entities)
        assert set(bucketed.buckets) == {(0, 0)}
        # With one partition offsets are global ids.
        np.testing.assert_array_equal(
            np.sort(bucketed.buckets[(0, 0)].src), np.sort(edges.src)
        )

    def test_one_sided_partitioning(self):
        """Figure 1 (centre): only sources partitioned → P buckets."""
        config = ConfigSchema(
            entities={
                "user": EntitySchema(num_partitions=3),
                "item": EntitySchema(),
            },
            relations=[RelationSchema(name="buys", lhs="user", rhs="item")],
            dimension=4,
        )
        entities = EntityStorage({"user": 30, "item": 10})
        entities.set_partitioning(
            "user", partition_entities(30, 3, np.random.default_rng(0))
        )
        rng = np.random.default_rng(1)
        edges = EdgeList(
            rng.integers(0, 30, 100),
            np.zeros(100, dtype=np.int64),
            rng.integers(0, 10, 100),
        )
        bucketed = bucket_edges(edges, config, entities)
        assert bucketed.nparts_lhs == 3 and bucketed.nparts_rhs == 1
        assert all(br == 0 for (_, br) in bucketed.buckets)

    def test_mismatched_grids_rejected(self):
        config = ConfigSchema(
            entities={
                "a": EntitySchema(num_partitions=2),
                "b": EntitySchema(num_partitions=3),
            },
            relations=[
                RelationSchema(name="r1", lhs="a", rhs="a"),
                RelationSchema(name="r2", lhs="b", rhs="b"),
            ],
            dimension=4,
        )
        entities = EntityStorage({"a": 10, "b": 10})
        entities.set_partitioning(
            "a", partition_entities(10, 2, np.random.default_rng(0))
        )
        entities.set_partitioning(
            "b", partition_entities(10, 3, np.random.default_rng(0))
        )
        edges = EdgeList.from_tuples([(0, 0, 1)])
        with pytest.raises(ValueError, match="share one partition count"):
            bucket_edges(edges, config, entities)

    def test_empty_edges(self):
        config, entities, _ = _setup(2)
        bucketed = bucket_edges(EdgeList.empty(), config, entities)
        assert bucketed.num_edges() == 0
        assert bucketed.nonempty_buckets() == []

    def test_edges_for_missing_bucket_is_empty(self):
        config, entities, edges = _setup(2)
        bucketed = bucket_edges(edges[:1], config, entities)
        # Only one bucket can be non-empty with a single edge.
        assert len(bucketed.nonempty_buckets()) == 1
        for b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            e = bucketed.edges_for(b)
            assert len(e) in (0, 1)


def _reference_buckets(edges, config, entities):
    """``bucket_edges`` by definition: walk the edges in input order and
    append each, with local offsets, to ``(part(src), part(dst))``."""
    out = {}
    for i in range(len(edges)):
        rel = config.relations[edges.rel[i]]
        lhs = entities.partitioning(rel.lhs)
        rhs = entities.partitioning(rel.rhs)
        src, dst = edges.src[i], edges.dst[i]
        key = (int(lhs.part_of[src]), int(rhs.part_of[dst]))
        weight = None if edges.weights is None else edges.weights[i]
        out.setdefault(key, []).append(
            (lhs.offset_of[src], edges.rel[i], rhs.offset_of[dst], weight)
        )
    return {key: out[key] for key in sorted(out)}


@st.composite
def _graphs(draw):
    """1-3 entity types sharing one partition count (one possibly
    unpartitioned), relations over several type pairs, edges with or
    without weights (possibly none)."""
    nparts = draw(st.integers(1, 4))
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    parts = {n: nparts for n in names}
    if len(names) > 1 and draw(st.booleans()):
        parts[draw(st.sampled_from(names))] = 1
    counts = {n: draw(st.integers(parts[n], 25)) for n in names}
    pairs = draw(st.lists(st.tuples(*[st.sampled_from(names)] * 2), min_size=1, max_size=4))
    config = ConfigSchema(
        entities={n: EntitySchema(num_partitions=parts[n]) for n in names},
        relations=[RelationSchema(name=f"r{i}", lhs=lhs, rhs=rhs)
                   for i, (lhs, rhs) in enumerate(pairs)],
        dimension=4,
    )
    entities = EntityStorage(counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for n in names:
        entities.set_partitioning(n, partition_entities(counts[n], parts[n], rng))
    rel = rng.integers(0, len(pairs), draw(st.integers(0, 80)))
    src = [rng.integers(counts[pairs[r][0]]) for r in rel]
    dst = [rng.integers(counts[pairs[r][1]]) for r in rel]
    weights = rng.random(len(rel)) + 0.1 if draw(st.booleans()) else None
    return config, entities, EdgeList(src, rel, dst, weights)


class TestBucketOracle:
    @settings(max_examples=100, deadline=None)
    @given(graph=_graphs())
    def test_equals_the_per_edge_reference(self, graph):
        """Keys, key order, and each bucket's columns in value, order
        and dtype: ``iterate_batches`` shuffles from this order."""
        config, entities, edges = graph
        bucketed = bucket_edges(edges, config, entities)
        reference = _reference_buckets(edges, config, entities)
        assert list(bucketed.buckets) == list(reference)
        for key, rows in reference.items():
            bucket = bucketed.buckets[key]
            src, rel, dst, weights = zip(*rows)
            for got, want in [(bucket.src, src), (bucket.rel, rel), (bucket.dst, dst)]:
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
            if edges.weights is None:
                assert bucket.weights is None
            else:
                assert bucket.weights.dtype == np.float64
                np.testing.assert_array_equal(bucket.weights, weights)


class TestUnknownIds:
    @pytest.mark.parametrize("rhs", ["node", "item"], ids=["one_pair", "two_pairs"])
    def test_relation_id_beyond_the_config_raises(self, rhs):
        config = ConfigSchema(
            entities={"node": EntitySchema(num_partitions=2), "item": EntitySchema()},
            relations=[RelationSchema(name="a", lhs="node", rhs="node"),
                       RelationSchema(name="b", lhs="node", rhs=rhs)],
            dimension=4,
        )
        entities = EntityStorage({"node": 10, "item": 10})
        edges = EdgeList.from_tuples([(0, 1, 1), (2, 2, 3)])
        with pytest.raises(ValueError, match="relation id 2 is not in the config"):
            bucket_edges(edges, config, entities)

    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_endpoint_id_beyond_its_type_raises(self, side):
        config, entities, _ = _setup(2, num_nodes=10)
        edge = {"src": (12, 0, 3), "dst": (3, 0, 12)}[side]
        edges = EdgeList.from_tuples([(1, 1, 2), edge])
        with pytest.raises(ValueError, match="entity id 12 is out of range for type 'node'"):
            bucket_edges(edges, config, entities)


class TestEntityStorage:
    def test_counts(self):
        es = EntityStorage({"a": 5, "b": 10})
        assert es.count("a") == 5

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            EntityStorage({"a": 0})

    def test_default_identity_partitioning(self):
        es = EntityStorage({"a": 7})
        p = es.partitioning("a")
        assert p.num_partitions == 1
        np.testing.assert_array_equal(p.offset_of, np.arange(7))

    def test_set_partitioning_validates_count(self):
        es = EntityStorage({"a": 7})
        wrong = partition_entities(5, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="covers 5"):
            es.set_partitioning("a", wrong)

    def test_unknown_type(self):
        es = EntityStorage({"a": 7})
        with pytest.raises(KeyError):
            es.set_partitioning(
                "zzz", partition_entities(7, 2, np.random.default_rng(0))
            )


def _assert_same_layout(got, want):
    """Array for array and dtype for dtype, every field of the layout."""
    for name in ("part_of", "offset_of", "part_sizes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert len(got.global_of) == len(want.global_of)
    for a, b in zip(got.global_of, want.global_of):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestOneLayoutConstructor:
    """The checkpoint rebuild and the identity layout go through the
    constructor ``partition_entities`` uses, so they build its layout."""

    @pytest.mark.parametrize("count,nparts", [
        (1, 1), (17, 1), (3, 3), (20, 3), (8, 8), (101, 8),
    ])
    @pytest.mark.parametrize("stored", [np.int64, np.int32])
    def test_checkpoint_rebuild_is_the_partitioned_layout(self, count, nparts, stored):
        from repro.core.checkpointing import _rebuild_partitioning

        want = partition_entities(count, nparts, np.random.default_rng(count))
        got = _rebuild_partitioning(
            want.part_of.astype(stored), want.offset_of.astype(stored)
        )
        _assert_same_layout(got, want)

    @pytest.mark.parametrize("count", [1, 7, 40])
    def test_identity_layout_is_the_one_partition_layout(self, count):
        got = EntityStorage({"a": count}).partitioning("a")
        want = partition_entities(count, 1, np.random.default_rng(0))
        _assert_same_layout(got, want)
