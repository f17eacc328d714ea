"""Tests for the serving layer: the IVF index, mmap shards, snapshot swap.

The load-bearing properties pinned here:

- exact equivalence: an IVF index probing every list is
  **bit-identical** to :class:`ExactIndex` (hypothesis property test);
- recall regression: a real approximate configuration keeps
  recall@10 >= 0.95 on clustered data;
- swap safety: concurrent queries racing publishes never observe a
  mixed view (scores always match the version the snapshot claims),
  and retired snapshots drain + close exactly once.
"""

import json
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigError, ConfigSchema, ServingConfig
from repro.serving import (
    ExactIndex,
    IVFPQIndex,
    KnnIndex,
    MmapShardedTable,
    QueryService,
    ServingError,
    SnapshotManager,
    current_version,
    kmeans,
    list_versions,
    make_index,
    publish_embeddings,
)
from repro.graph.storage import atomic_write, read_arrays, write_arrays
from repro.serving.shards import LAYOUT_NAME, MANIFEST_NAME


def _clustered(n_per=40, c=16, d=16, seed=0):
    """Well-separated Gaussian blobs — IVF's favourable regime."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, d)) * 6
    emb = np.vstack(
        [centers[i] + 0.3 * rng.standard_normal((n_per, d))
         for i in range(c)]
    )
    labels = np.repeat(np.arange(c), n_per)
    return emb.astype(np.float32), labels


def _damage(path, how):
    """Flip one bit inside the last array of ``path``, or cut its end."""
    data = path.read_bytes()
    if how == "bit_flip":
        path.write_bytes(_flip(data, len(data) - 5))
    else:
        path.write_bytes(data[:-7])


def _flip(data: bytes, offset: int) -> bytes:
    flipped = data[offset] ^ (1 << offset % 8)
    return data[:offset] + bytes([flipped]) + data[offset + 1:]


def _overlap_recall(idx, true_idx):
    """Mean fraction of the exact top-k recovered per query."""
    hits = [
        len(np.intersect1d(a, b)) / true_idx.shape[1]
        for a, b in zip(idx, true_idx)
    ]
    return float(np.mean(hits))


# ----------------------------------------------------------------------
# k-means
# ----------------------------------------------------------------------


class TestKmeans:
    def test_deterministic(self):
        emb, _ = _clustered()
        c1, a1 = kmeans(emb, 8, 5, np.random.default_rng(7))
        c2, a2 = kmeans(emb, 8, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_partitions_all_rows(self):
        emb, _ = _clustered()
        centroids, assign = kmeans(emb, 8, 5, np.random.default_rng(0))
        assert centroids.shape == (8, emb.shape[1])
        assert assign.shape == (len(emb),)
        assert assign.min() >= 0 and assign.max() < 8

    def test_cells_pure_on_separated_clusters(self):
        # With more cells than blobs, every k-means cell ends up
        # inside one blob (Lloyd's may still split a blob — that is
        # fine; what it must not do is straddle two).
        emb, labels = _clustered(c=4, n_per=30)
        _, assign = kmeans(emb, 8, 10, np.random.default_rng(0))
        for cell in range(8):
            assert len(np.unique(labels[assign == cell])) <= 1

    def test_always_returns_k_centroids(self):
        # Fewer distinct points than k forces empty-cluster reseeds.
        data = np.repeat(np.eye(3), 4, axis=0)  # 12 rows, 3 distinct
        centroids, assign = kmeans(data, 10, 5, np.random.default_rng(0))
        assert centroids.shape == (10, 3)
        assert np.isfinite(centroids).all()
        assert assign.max() < 10

    @pytest.mark.parametrize("k", [4, 10])
    def test_centroids_are_member_means(self, k):
        # Means of one-hot rows sum to 1, whichever cluster ids are
        # empty (a sum that drops a member row does not).
        data = np.repeat(np.eye(3), 4, axis=0)
        for seed in range(50):
            centroids, _ = kmeans(data, k, 1, np.random.default_rng(seed))
            np.testing.assert_allclose(
                centroids.sum(axis=1), 1.0, rtol=1e-12,
                err_msg=f"seed {seed}",
            )

    def test_k_validation(self):
        emb, _ = _clustered()
        with pytest.raises(ValueError, match="k must be in"):
            kmeans(emb, 0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="k must be in"):
            kmeans(emb, len(emb) + 1, 5, np.random.default_rng(0))


# ----------------------------------------------------------------------
# IVF index
# ----------------------------------------------------------------------


class TestIVFPQIndex:
    def test_implements_protocol(self):
        emb, _ = _clustered()
        assert isinstance(
            IVFPQIndex(num_lists=4).build(emb), KnnIndex
        )

    def test_query_before_build(self):
        with pytest.raises(ServingError, match="build"):
            IVFPQIndex().query(np.zeros((1, 4)), k=1)

    def test_build_validation(self):
        with pytest.raises(ValueError, match="\\(n, d\\)"):
            IVFPQIndex().build(np.zeros(5))
        with pytest.raises(ValueError, match="0 vectors"):
            IVFPQIndex().build(np.zeros((0, 4)))
        with pytest.raises(ValueError, match="num_lists"):
            IVFPQIndex(num_lists=0)
        with pytest.raises(ValueError, match="nprobe"):
            IVFPQIndex(nprobe=0)

    def test_list_sizes_cover_table(self):
        emb, _ = _clustered()
        nn = IVFPQIndex(num_lists=8, nprobe=2).build(emb)
        sizes = nn.list_sizes()
        assert sizes.sum() == len(emb)
        assert (sizes >= 0).all()

    @pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
    def test_full_probe_bit_identical(self, comparator):
        emb, _ = _clustered()
        exact = ExactIndex(emb, comparator, chunk_size=97)
        ivf = IVFPQIndex(
            comparator=comparator, num_lists=8, nprobe=8, chunk_size=97
        ).build(emb)
        q = emb[::7]
        ei, es = exact.query(q, k=9, exclude_self=np.arange(0, len(emb), 7))
        ai, ascores = ivf.query(
            q, k=9, exclude_self=np.arange(0, len(emb), 7)
        )
        np.testing.assert_array_equal(ei, ai)
        np.testing.assert_array_equal(es, ascores)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(5, 60),
        d=st.integers(2, 12),
        k=st.integers(1, 5),
        num_lists=st.integers(1, 6),
        comparator=st.sampled_from(["dot", "cos", "l2"]),
        seed=st.integers(0, 2**16),
    )
    def test_property_full_probe_equivalence(
        self, n, d, k, num_lists, comparator, seed
    ):
        """nprobe = num_lists == ExactIndex, bit for bit."""
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, d)).astype(np.float32)
        exact = ExactIndex(emb, comparator, chunk_size=13)
        ivf = IVFPQIndex(
            comparator=comparator,
            num_lists=num_lists,
            nprobe=num_lists,
            seed=seed,
            chunk_size=13,
        ).build(emb)
        q = emb[: min(4, n)]
        ei, es = exact.query(q, k=min(k, n))
        ai, ascores = ivf.query(q, k=min(k, n))
        np.testing.assert_array_equal(ei, ai)
        np.testing.assert_array_equal(es, ascores)

    @pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
    def test_recall_regression_clustered(self, comparator):
        """The headline gate: recall@10 >= 0.95 at nprobe << num_lists."""
        emb, _ = _clustered(n_per=40, c=16, d=16, seed=1)
        rng = np.random.default_rng(2)
        q = emb[rng.choice(len(emb), 64, replace=False)]
        true_idx, _ = ExactIndex(emb, comparator).query(q, k=10)
        ivf = IVFPQIndex(
            comparator=comparator, num_lists=16, nprobe=4
        ).build(emb)
        idx, _ = ivf.query(q, k=10)
        assert _overlap_recall(idx, true_idx) >= 0.95

    def test_padding_sentinels(self):
        # Two tight, far-apart blobs; nprobe=1 sees only one of them,
        # so k beyond the probed list's size pads with -1 / -inf.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 4)) * 0.1 + 100.0
        b = rng.standard_normal((10, 4)) * 0.1 - 100.0
        emb = np.vstack([a, b]).astype(np.float32)
        nn = IVFPQIndex(
            comparator="l2", num_lists=2, nprobe=1, kmeans_iters=20
        ).build(emb)
        assert sorted(nn.list_sizes()) == [10, 10]
        idx, scores = nn.query(emb[:1], k=15)
        assert (idx[0] == -1).sum() == 5
        assert np.isinf(scores[0][idx[0] == -1]).all()
        assert (idx[0][idx[0] >= 0] < 10).all()  # own blob only

    def test_exclude_self_in_probe_path(self):
        emb, _ = _clustered()
        nn = IVFPQIndex(num_lists=8, nprobe=3).build(emb)
        ids = np.arange(0, 32)
        idx, _ = nn.query(emb[:32], k=5, exclude_self=ids)
        assert not (idx == ids[:, None]).any()

    def test_deterministic_given_seed(self):
        emb, _ = _clustered()
        a = IVFPQIndex(num_lists=8, nprobe=2, seed=3).build(emb)
        b = IVFPQIndex(num_lists=8, nprobe=2, seed=3).build(emb)
        ia, sa = a.query(emb[:10], k=5)
        ib, sb = b.query(emb[:10], k=5)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(sa, sb)

    def test_build_from_mmap_table_matches_array(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb, comparator="cos")
        table = MmapShardedTable.open(tmp_path)
        from_table = IVFPQIndex(num_lists=8, nprobe=3).build(table)
        from_array = IVFPQIndex(num_lists=8, nprobe=3).build(emb)
        ti, ts = from_table.query(emb[:8], k=5)
        ai, ascores = from_array.query(emb[:8], k=5)
        np.testing.assert_array_equal(ti, ai)
        np.testing.assert_array_equal(ts, ascores)
        table.close()


class TestBuildPrecision:
    """The build runs in the table's own dtype and reads it in place."""

    @pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_build_keeps_table_dtype(self, comparator, dtype):
        emb = _clustered()[0].astype(dtype)
        nn = IVFPQIndex(
            comparator=comparator, num_lists=8, nprobe=2
        ).build(emb)
        assert nn._centroids.dtype == dtype
        assert nn._grouped.dtype == dtype
        assert nn.query(emb[:3], k=2)[1].dtype == dtype

    def test_traced_peak_within_three_tables(self):
        table = np.random.default_rng(0).standard_normal(
            (100_000, 64)
        ).astype(np.float32)
        tracemalloc.start()
        try:
            IVFPQIndex(comparator="cos", num_lists=256).build(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / table.nbytes <= 3.0

    def test_dot_build_from_read_only_mapping(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb, comparator="dot")
        table = MmapShardedTable.open(tmp_path)
        assert not table.as_array().flags.writeable
        mapped = IVFPQIndex(comparator="dot", num_lists=8).build(table)
        in_memory = IVFPQIndex(comparator="dot", num_lists=8).build(emb)
        for name in ("_centroids", "_ids", "_starts", "_grouped"):
            a, b = getattr(mapped, name), getattr(in_memory, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        table.close()


# ----------------------------------------------------------------------
# The merge-once probe path against the exact scan of the probed lists
# ----------------------------------------------------------------------


def _probes(index, prepared_q):
    """The lists ``IVFPQIndex.query`` probes for each query."""
    nprobe = min(index.nprobe, len(index._centroids))
    cscores = index._comp.score_matrix(prepared_q, index._centroids)
    return np.argpartition(-cscores, nprobe - 1, axis=1)[:, :nprobe]


def _assert_same_answers(got, want, rounding_of=None):
    """Same scores, and the same ids run by run: a run of slots whose
    scores tie holds the same set of ids on
    both sides, in either order. Only the run that reaches slot ``k``
    goes unchecked, since which of the tied rows made the cut is
    arbitrary. A slot scored ``-inf`` holds ``-1`` or an excluded
    row, whichever the selection met first.

    ``rounding_of=None`` demands bit-equal scores (after the cast to
    float64), so only exact ties form runs. Where the two sides sum in
    another order or at another BLAS shape, pass the prepared float32
    vectors: scores may then differ by the rounding of their largest
    term, ``|a|^2 + |b|^2``, and rows closer than that tie.
    """
    (got_idx, got_scores), (want_idx, want_scores) = got, want
    got_scores = got_scores.astype(np.float64)
    want_scores = want_scores.astype(np.float64)
    assert got_idx.shape == want_idx.shape
    tied = 0.0
    if rounding_of is None:
        np.testing.assert_array_equal(got_scores, want_scores)
    else:
        largest = 2 * float(np.square(rounding_of).sum(axis=1).max())
        atol = 16 * np.finfo(np.float32).eps * largest
        np.testing.assert_allclose(
            got_scores, want_scores, rtol=0, atol=atol
        )
        tied = 4 * atol
    k = want_idx.shape[1]
    for row, scores in enumerate(want_scores):
        with np.errstate(invalid="ignore"):
            starts = np.flatnonzero(~(np.abs(np.diff(scores)) <= tied)) + 1
        for lo, hi in zip(np.r_[0, starts], np.r_[starts, k]):
            if hi == k or not np.isfinite(scores[lo]):
                continue
            np.testing.assert_array_equal(
                np.sort(got_idx[row, lo:hi]), np.sort(want_idx[row, lo:hi])
            )


class TestMergeOnceProbe:
    @settings(max_examples=60, deadline=None)
    @given(
        comparator=st.sampled_from(["dot", "cos", "l2"]),
        exclude=st.booleans(),
        num_lists=st.integers(2, 7),
        nprobe_share=st.floats(0.0, 1.0),
        big_k=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_exact_scan_of_probed_lists(
        self, comparator, exclude, num_lists, nprobe_share, big_k, seed,
    ):
        """Each query's answer is the exact top-k over the rows of the
        lists it probed, padded with ``-1``. Scores agree to the
        rounding of the other summation order and BLAS shape."""
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((90, 8)).astype(np.float32)
        nprobe = 1 + int(nprobe_share * (num_lists - 2))
        assert 1 <= nprobe < num_lists
        index = IVFPQIndex(
            comparator=comparator, num_lists=num_lists, nprobe=nprobe,
            seed=seed,
        ).build(emb)
        picks = rng.choice(len(emb), 12, replace=False)
        vectors = emb[picks] + 0.01 * rng.standard_normal((12, 8)).astype(
            np.float32
        )
        # below every probed list's size, or above their total (padding)
        k = len(emb) if big_k else int(rng.integers(1, 4))
        idx, scores = index.query(
            vectors, k=k, exclude_self=picks if exclude else None
        )
        comp, prepared_q = index._comp, index._comp.prepare(vectors)
        stored = index._grouped
        for i, lists in enumerate(_probes(index, prepared_q)):
            rows = np.concatenate([
                np.arange(index._starts[lst], index._starts[lst + 1])
                for lst in lists
            ])
            if exclude:
                rows = rows[index._ids[rows] != picks[i]]
            union = comp.score_matrix(prepared_q[i : i + 1], stored[rows])[0]
            best = np.argsort(-union, kind="stable")
            want = union[best]
            pad = max(k - len(best), 0)
            _assert_same_answers(
                (idx[i : i + 1], scores[i : i + 1]),
                (np.r_[index._ids[rows[best[:k]]], [-1] * pad][None],
                 np.r_[want[:k], [-np.inf] * pad][None]),
                rounding_of=stored,
            )

    def test_one_score_matrix_call_per_populated_list(self, monkeypatch):
        emb, _ = _clustered(n_per=60, c=16, d=16)
        index = IVFPQIndex(
            comparator="cos", num_lists=32, nprobe=4
        ).build(emb)
        vectors = emb[np.random.default_rng(0).choice(len(emb), 64)]
        probes = _probes(index, index._comp.prepare(vectors))
        populated = np.intersect1d(
            probes, np.flatnonzero(index.list_sizes())
        )
        assert 4 < len(populated) < 64 * 4  # lists shared between queries
        calls = []
        owner = type(index._comp)
        score_matrix = owner.score_matrix

        def counting(self, a, pool):
            calls.append((a.shape, pool.shape))
            return score_matrix(self, a, pool)

        monkeypatch.setattr(owner, "score_matrix", counting)
        index.query(vectors, k=10)
        # the centroids, then every populated list exactly once
        assert len(calls) == 1 + len(populated)

    @pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
    def test_partial_probe_keeps_the_score_dtype(self, comparator):
        emb, _ = _clustered()
        assert emb.dtype == np.float32
        exact = ExactIndex(emb, comparator)
        ivf = IVFPQIndex(
            comparator=comparator, num_lists=8, nprobe=3
        ).build(emb)
        want = exact.query(emb[:9], k=5)[1].dtype
        assert want == np.float32
        assert ivf.query(emb[:9], k=5)[1].dtype == want
        ivf.nprobe = 8
        assert ivf.query(emb[:9], k=5)[1].dtype == want

    def test_nbytes_counts_the_full_probe_copy(self):
        emb, _ = _clustered()
        ivf = IVFPQIndex(num_lists=8, nprobe=3).build(emb)
        built = ivf.nbytes()
        ivf.query(emb[:4], k=3)
        assert ivf.nbytes() == built  # a partial probe keeps no copy
        ivf.nprobe = 8
        ivf.query(emb[:4], k=3)
        # the table again, in its original row order
        assert ivf.nbytes() == built + emb.nbytes
        ivf.query(emb[:4], k=3)
        assert ivf.nbytes() == built + emb.nbytes


class TestBlockMaxPreselection:
    """``chunked_topk`` on chunks wide enough to be narrowed by block
    maxima first (the small-chunk tests above never are)."""

    @pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
    @pytest.mark.parametrize("n", [1536, 1536 + 77])
    def test_wide_chunk_against_bruteforce(self, comparator, n):
        rng = np.random.default_rng(n)
        emb = rng.standard_normal((n, 8)).astype(np.float32)
        emb[rng.choice(n, 200)] = emb[rng.choice(n, 200)]  # tied scores
        picks = np.concatenate([[0, n - 1], rng.choice(n, 18)])
        exact = ExactIndex(emb, comparator)
        k = 3
        assert n // 128 >= 4 * k  # the preselection runs
        idx, scores = exact.query(emb[picks], k=k, exclude_self=picks)
        brute = exact._comp.score_matrix(
            exact._prepared, exact._comp.prepare(emb[picks])
        ).T
        brute[np.arange(len(picks)), picks] = -np.inf
        np.testing.assert_array_equal(
            scores, -np.sort(-brute, axis=1)[:, :k]
        )
        np.testing.assert_array_equal(
            np.take_along_axis(brute, idx, axis=1), scores
        )
        assert all(len(set(row)) == k for row in idx.tolist())

    def test_wide_and_narrow_chunks_agree(self):
        rng = np.random.default_rng(7)
        emb = rng.standard_normal((3000, 8)).astype(np.float32)
        wide = ExactIndex(emb, "dot").query(emb[:16], k=5)
        narrow = ExactIndex(emb, "dot", chunk_size=500).query(
            emb[:16], k=5
        )
        np.testing.assert_array_equal(wide[0], narrow[0])
        np.testing.assert_allclose(wide[1], narrow[1], rtol=1e-5)


class TestExcludedRowIsNoResult:
    """Under ``exclude_self`` a slot scored ``-inf`` holds ``-1``, never
    the excluded row's id, when ``k`` reaches past the rows that could
    be scored: the whole table (exact scan, full probe) or the probed
    lists (probe path)."""

    @staticmethod
    def _check(idx, scores, excluded, finite_per_row):
        assert ((scores == -np.inf) == (idx == -1)).all()
        assert not (idx == excluded[:, None]).any()
        np.testing.assert_array_equal(
            np.isfinite(scores).sum(axis=1), finite_per_row
        )

    @pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
    def test_exact_and_full_probe_at_k_num_items(self, comparator):
        emb, _ = _clustered(n_per=10, c=4, d=8)
        picks = np.arange(0, len(emb), 5)
        for index in (
            ExactIndex(emb, comparator, chunk_size=13),
            IVFPQIndex(comparator=comparator, num_lists=4, nprobe=4,
                       chunk_size=13).build(emb),
        ):
            idx, scores = index.query(emb[picks], k=len(emb),
                                      exclude_self=picks)
            self._check(idx, scores, picks, len(emb) - 1)
        # Without exclude_self the same call fills every slot.
        idx, _ = index.query(emb[picks], k=len(emb))
        assert (idx >= 0).all()

    def test_probe_path_with_k_above_the_probed_rows(self):
        emb, _ = _clustered(n_per=10, c=4, d=8)
        index = IVFPQIndex(
            comparator="l2", num_lists=4, nprobe=1, kmeans_iters=20,
        ).build(emb)
        picks = np.arange(0, len(emb), 5)
        k = int(index.list_sizes().max()) + 3  # past every list's rows
        idx, scores = index.query(emb[picks], k=k, exclude_self=picks)
        probed = index.list_sizes()[_probes(
            index, index._comp.prepare(emb[picks])
        )[:, 0]]
        self._check(idx, scores, picks, np.minimum(probed - 1, k))


# ----------------------------------------------------------------------
# Shard publishing + mmap tables
# ----------------------------------------------------------------------


class TestShards:
    def test_publish_and_open(self, tmp_path):
        emb, _ = _clustered()
        assert current_version(tmp_path) is None
        assert list_versions(tmp_path) == []
        v = publish_embeddings(tmp_path, emb, comparator="dot")
        assert v == 1
        assert current_version(tmp_path) == 1
        table = MmapShardedTable.open(tmp_path)
        assert table.version == 1
        assert table.comparator == "dot"
        assert table.num_items == len(emb)
        assert table.dim == emb.shape[1]
        np.testing.assert_array_equal(table.as_array(), emb)
        assert table.nbytes_on_disk() >= emb.nbytes
        table.close()

    def test_versions_increment(self, tmp_path):
        emb, _ = _clustered()
        assert publish_embeddings(tmp_path, emb) == 1
        assert publish_embeddings(tmp_path, emb * 2) == 2
        assert list_versions(tmp_path) == [1, 2]
        assert current_version(tmp_path) == 2
        # Old versions stay immutable and openable.
        old = MmapShardedTable(tmp_path / "v-000001")
        np.testing.assert_array_equal(old.as_array(), emb)
        old.close()

    def test_no_staging_debris(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        leftovers = [p.name for p in tmp_path.glob(".tmp-*")]
        assert leftovers == []

    def test_gather(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        table = MmapShardedTable.open(tmp_path)
        ids = np.asarray([3, 0, 77, 3])
        np.testing.assert_array_equal(table.gather(ids), emb[ids])
        with pytest.raises(ValueError, match="ids must be in"):
            table.gather(np.asarray([len(emb)]))
        with pytest.raises(ValueError, match="ids must be in"):
            table.gather(np.asarray([-1]))
        table.close()

    def test_close_idempotent_then_raises(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        table = MmapShardedTable.open(tmp_path)
        table.close()
        table.close()
        with pytest.raises(ServingError, match="closed"):
            table.gather(np.asarray([0]))
        with pytest.raises(ServingError, match="closed"):
            table.as_array()

    def test_corrupt_current_pointer(self, tmp_path):
        (tmp_path / "CURRENT").write_text("garbage\n")
        with pytest.raises(ServingError, match="corrupt CURRENT"):
            current_version(tmp_path)

    def test_open_without_publish(self, tmp_path):
        with pytest.raises(ServingError, match="no published snapshot"):
            MmapShardedTable.open(tmp_path)

    def test_multi_shard_permuted_layout(self, tmp_path):
        """Hand-built 2-shard snapshot with a scrambled id layout."""
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((20, 4)).astype(np.float32)
        part_of = rng.integers(0, 2, 20)
        offset_of = np.empty(20, dtype=np.int64)
        shards = []
        for p in range(2):
            members = np.flatnonzero(part_of == p)
            offset_of[members] = np.arange(len(members))
            shards.append(emb[members])
        vdir = tmp_path / "v-000001"
        vdir.mkdir(parents=True)
        for p, shard in enumerate(shards):
            atomic_write(vdir / f"shard-{p:05d}.bin", write_arrays,
                         {"embeddings": shard})
        atomic_write(vdir / LAYOUT_NAME, write_arrays, {
            "part": part_of.astype(np.int64), "offset": offset_of,
        })
        (vdir / MANIFEST_NAME).write_text(json.dumps({
            "version": 1, "entity_type": "node", "comparator": "cos",
            "dim": 4, "count": 20, "source": {},
            "shards": [
                {"part": p, "rows": len(s), "file": f"shard-{p:05d}.bin"}
                for p, s in enumerate(shards)
            ],
        }))
        (tmp_path / "CURRENT").write_text("v-000001\n")
        table = MmapShardedTable.open(tmp_path)
        assert not table._identity_layout
        np.testing.assert_array_equal(table.as_array(), emb)
        ids = np.asarray([19, 0, 7, 7, 12])
        np.testing.assert_array_equal(table.gather(ids), emb[ids])
        table.close()

    def test_shard_shape_mismatch_rejected(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        vdir = tmp_path / "v-000001"
        manifest = json.loads((vdir / MANIFEST_NAME).read_text())
        manifest["shards"][0]["rows"] += 1
        (vdir / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ServingError, match="does not\\s+match manifest"):
            MmapShardedTable.open(tmp_path)

    def test_export_mmap_unit(self, tmp_path):
        from repro.graph.storage import (
            PartitionedEmbeddingStorage,
            StorageError,
        )

        store = PartitionedEmbeddingStorage(tmp_path / "parts")
        rng = np.random.default_rng(0)
        for p, rows in enumerate((6, 9)):
            emb = rng.standard_normal((rows, 4)).astype(np.float32)
            store.save("node", p, emb, np.zeros(rows, dtype=np.float32))
        shards, dim = store.export_mmap("node", tmp_path / "out")
        assert dim == 4
        assert [s["rows"] for s in shards] == [6, 9]
        for s in shards:
            arr = read_arrays(tmp_path / "out" / s["file"], mmap=True)[
                "embeddings"
            ]
            assert arr.shape == (s["rows"], 4)
            assert arr.dtype == np.float32
        with pytest.raises(StorageError, match="no stored partitions"):
            store.export_mmap("ghost", tmp_path / "out2")

    def test_missing_shard_for_layout_part_rejected(self, tmp_path):
        """A layout that points at an absent shard must fail open()."""
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((8, 4)).astype(np.float32)
        vdir = tmp_path / "v-000001"
        vdir.mkdir(parents=True)
        atomic_write(vdir / "shard-00000.bin", write_arrays,
                     {"embeddings": emb})
        part_of = np.zeros(8, dtype=np.int64)
        part_of[3] = 1  # references shard 1, which does not exist
        atomic_write(vdir / LAYOUT_NAME, write_arrays, {
            "part": part_of, "offset": np.arange(8, dtype=np.int64),
        })
        (vdir / MANIFEST_NAME).write_text(json.dumps({
            "version": 1, "entity_type": "node", "comparator": "cos",
            "dim": 4, "count": 8, "source": {},
            "shards": [{"part": 0, "rows": 8, "file": "shard-00000.bin"}],
        }))
        (tmp_path / "CURRENT").write_text("v-000001\n")
        with pytest.raises(ServingError, match=r"no shard for.*\[1\]"):
            MmapShardedTable.open(tmp_path)

    @staticmethod
    def _partitioned_checkpoint(root, num_parts=4, n=40, d=8):
        """A checkpoint of a partitioned run: every partition in the
        one store, ``embeddings/``."""
        from repro.config import single_entity_config
        from repro.graph.storage import CheckpointStorage

        rng = np.random.default_rng(0)
        emb = rng.standard_normal((n, d)).astype(np.float32)
        part_of = rng.integers(0, num_parts, n)
        part_of[:num_parts] = np.arange(num_parts)  # every part non-empty
        offset_of = np.empty(n, dtype=np.int64)
        ckpt = CheckpointStorage(root)
        ckpt.save_config(
            single_entity_config(num_partitions=num_parts, dimension=d)
            .to_json()
        )
        ckpt.save_metadata({"epoch": 0, "counts": {"node": n}})
        for p in range(num_parts):
            members = np.flatnonzero(part_of == p)
            offset_of[members] = np.arange(len(members))
            ckpt.partitions.save("node", p, emb[members],
                                 np.zeros(len(members), dtype=np.float32))
        ckpt.save_shared({
            "layout_node_part": part_of.astype(np.int64),
            "layout_node_offset": offset_of,
        })
        return emb

    def test_publish_checkpoint_of_a_partitioned_run(self, tmp_path):
        from repro.serving import publish_checkpoint

        emb = self._partitioned_checkpoint(tmp_path / "ckpt")
        version = publish_checkpoint(tmp_path / "snap", tmp_path / "ckpt",
                                     "node")
        assert version == 1
        table = MmapShardedTable.open(tmp_path / "snap")
        assert not table._identity_layout
        np.testing.assert_array_equal(table.as_array(), emb)
        ids = np.asarray([0, 17, 39, 17])
        np.testing.assert_array_equal(table.gather(ids), emb[ids])
        table.close()

    def test_publish_checkpoint_partition_missing_everywhere(self, tmp_path):
        from repro.graph.storage import CheckpointStorage
        from repro.serving import publish_checkpoint

        self._partitioned_checkpoint(tmp_path / "ckpt")
        CheckpointStorage(tmp_path / "ckpt").partitions.path("node", 1).unlink()
        with pytest.raises(ServingError, match=r"missing partition\(s\) \[1\]"):
            publish_checkpoint(tmp_path / "snap", tmp_path / "ckpt", "node")


# ----------------------------------------------------------------------
# Snapshot manager: refcounted atomic swap
# ----------------------------------------------------------------------


class TestSnapshotManager:
    def test_refresh_without_publish(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        assert manager.refresh() is False
        assert manager.current_version() is None
        with pytest.raises(ServingError, match="no snapshot loaded"):
            with manager.acquire():
                pass

    def test_refresh_and_query(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb, comparator="cos")
        manager = SnapshotManager(tmp_path)
        assert manager.refresh() is True
        assert manager.refresh() is False  # already current
        assert manager.current_version() == 1
        with manager.acquire() as snap:
            idx, _ = snap.index.query(emb[:2], k=3)
            assert idx.shape == (2, 3)
        manager.close()

    def test_swap_retires_and_drains(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        manager = SnapshotManager(tmp_path)
        manager.refresh()
        with manager.acquire() as snap:
            assert snap.version == 1
            publish_embeddings(tmp_path, emb * 2)
            assert manager.refresh() is True
            assert manager.current_version() == 2
            # The pinned v1 survives the swap, fully usable.
            assert manager.retired_count() == 1
            np.testing.assert_array_equal(
                snap.table.as_array(), emb
            )
        # Releasing the last pin closed the retired snapshot.
        assert manager.retired_count() == 0
        with pytest.raises(ServingError, match="closed"):
            snap.table.as_array()
        manager.close()

    def test_unpinned_swap_closes_immediately(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        manager = SnapshotManager(tmp_path)
        manager.refresh()
        with manager.acquire() as snap:
            pass
        publish_embeddings(tmp_path, emb * 2)
        manager.refresh()
        assert manager.retired_count() == 0
        with pytest.raises(ServingError, match="closed"):
            snap.table.gather(np.asarray([0]))
        manager.close()

    def test_custom_index_factory(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        built = []

        def factory(table):
            idx = IVFPQIndex(num_lists=4, nprobe=4).build(table)
            built.append(idx)
            return idx

        manager = SnapshotManager(tmp_path, index_factory=factory)
        manager.refresh()
        with manager.acquire() as snap:
            assert snap.index is built[0]
        manager.close()

    def test_close_releases_everything(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        manager = SnapshotManager(tmp_path)
        manager.refresh()
        manager.close()
        assert manager.current_version() is None
        with pytest.raises(ServingError, match="no snapshot loaded"):
            with manager.acquire():
                pass


class TestRefusedVersion:
    """A version whose files fail to open is refused, never served."""

    @pytest.mark.parametrize("name", ["shard-00000.bin", LAYOUT_NAME])
    def test_any_flipped_byte_fails_the_open(self, tmp_path, name):
        publish_embeddings(tmp_path, np.arange(12.0).reshape(4, 3))
        path = tmp_path / "v-000001" / name
        data = path.read_bytes()
        for offset in range(len(data)):  # header and arrays alike
            path.write_bytes(_flip(data, offset))
            with pytest.raises(ServingError, match=re.escape(str(path))):
                MmapShardedTable.open(tmp_path)
        path.write_bytes(data)
        MmapShardedTable.open(tmp_path).close()

    def test_cold_start_raises_once(self, tmp_path):
        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb)
        _damage(tmp_path / "v-000001" / "shard-00000.bin", "truncate")
        manager = SnapshotManager(tmp_path)
        with pytest.raises(ServingError, match="shard-00000.bin"):
            manager.refresh()
        assert manager.refresh() is False  # refused, not reopened
        assert manager.metrics.counter("serve.refused").value == 1
        assert manager.current_version() is None

    @pytest.mark.parametrize("damage", ["bit_flip", "truncate"])
    def test_live_snapshot_keeps_serving(self, tmp_path, monkeypatch, damage):
        from repro.serving import snapshot

        emb, _ = _clustered()
        publish_embeddings(tmp_path, emb, comparator="dot")
        manager = SnapshotManager(tmp_path)
        manager.refresh()
        service = QueryService(manager, batch_size=4, auto_refresh=True)
        want = service.query(emb[:12], k=3)
        publish_embeddings(tmp_path, emb[::-1], comparator="dot")
        _damage(tmp_path / "v-000002" / "shard-00000.bin", damage)
        opened = []

        class CountingTable(MmapShardedTable):
            def __init__(self, version_dir):
                opened.append(version_dir.name)
                super().__init__(version_dir)

        monkeypatch.setattr(snapshot, "MmapShardedTable", CountingTable)
        for _ in range(3):  # each query polls CURRENT twice
            got = service.query(emb[:12], k=3)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        assert manager.refresh() is False
        assert manager.current_version() == 1
        assert opened == ["v-000002"]
        refused = manager.metrics.counter("serve.refused")
        assert refused.value == 1
        # A new version is opened as usual.
        publish_embeddings(tmp_path, emb * 2, comparator="dot")
        assert manager.refresh() is True
        assert manager.current_version() == 3
        assert opened == ["v-000002", "v-000003"] and refused.value == 1
        manager.close()


# ----------------------------------------------------------------------
# Query service + the swap race
# ----------------------------------------------------------------------


class TestQueryService:
    def _served(self, tmp_path, emb, **kw):
        publish_embeddings(tmp_path, emb, comparator="dot")
        manager = SnapshotManager(tmp_path)
        manager.refresh()
        return manager, QueryService(manager, **kw)

    def test_validation(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        with pytest.raises(ValueError, match="batch_size"):
            QueryService(manager, batch_size=0)
        with pytest.raises(ValueError, match="default_k"):
            QueryService(manager, default_k=0)

    def test_batching_matches_unbatched(self, tmp_path):
        emb, _ = _clustered()
        manager, service = self._served(tmp_path, emb, batch_size=7)
        idx, scores = service.query(emb[:20], k=4)
        ei, es = ExactIndex(emb, "dot").query(emb[:20], k=4)
        np.testing.assert_array_equal(idx, ei)
        np.testing.assert_array_equal(scores, es)
        stats = service.stats()
        assert stats.queries == 20
        assert stats.batches == 3  # ceil(20 / 7)
        assert stats.version == 1
        assert "QPS" in stats.summary()
        manager.close()

    def test_exclude_self_sliced_with_batches(self, tmp_path):
        emb, _ = _clustered()
        manager, service = self._served(tmp_path, emb, batch_size=5)
        ids = np.arange(17)
        idx, _ = service.query(emb[:17], k=6, exclude_self=ids)
        assert not (idx == ids[:, None]).any()
        manager.close()

    def test_default_k(self, tmp_path):
        emb, _ = _clustered()
        manager, service = self._served(tmp_path, emb, default_k=3)
        idx, _ = service.query(emb[:2])
        assert idx.shape == (2, 3)
        manager.close()

    def test_query_pinned_reports_version(self, tmp_path):
        emb, _ = _clustered()
        manager, service = self._served(tmp_path, emb)
        idx, scores, version = service.query_pinned(emb[:3], k=2)
        assert version == 1
        assert idx.shape == (3, 2)
        manager.close()

    def test_auto_refresh_picks_up_new_version(self, tmp_path):
        emb, _ = _clustered()
        manager, service = self._served(
            tmp_path, emb, batch_size=4, auto_refresh=True
        )
        publish_embeddings(tmp_path, emb * 2, comparator="dot")
        assert manager.current_version() == 1
        service.query(emb[:12], k=3)  # 3 batches -> refresh between
        assert manager.current_version() == 2
        manager.close()

    def test_swap_race_never_mixed_view(self, tmp_path):
        """Readers racing publishes always see a consistent snapshot.

        Version v serves the base table scaled by ``2**(v-1)``.
        Scaling by a power of two is exact in fp32 and commutes with
        every float op in the scan, so a reader that claims "answered
        by version v" must return **exactly** ``2**(v-1)`` times the
        v1 scores — any mix of old index with new table (or vice
        versa) breaks the equality. Runs under the lockdep harness
        when REPRO_LOCKDEP=1 (CI) is set.
        """
        base, _ = _clustered(n_per=20, c=4, d=8)
        queries = base[::5]
        publish_embeddings(tmp_path, base, comparator="dot")
        manager = SnapshotManager(tmp_path)
        manager.refresh()
        service = QueryService(manager)
        base_idx, base_scores, v = service.query_pinned(queries, k=5)
        assert v == 1

        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    idx, scores, ver = service.query_pinned(queries, k=5)
                    expect = base_scores * (2.0 ** (ver - 1))
                    if not np.array_equal(scores, expect):
                        errors.append(
                            f"v{ver}: scores do not match the "
                            f"claimed version"
                        )
                        return
                    if not np.array_equal(idx, base_idx):
                        errors.append(f"v{ver}: indices changed")
                        return
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for version in range(2, 7):
                publish_embeddings(
                    tmp_path,
                    base * np.float32(2.0 ** (version - 1)),
                    comparator="dot",
                )
                assert manager.refresh() is True
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []
        # All retired snapshots drained and closed once readers left.
        assert manager.retired_count() == 0
        assert manager.current_version() == 6
        stats = service.stats()
        assert stats.swaps == 6  # initial load + 5 republishes
        manager.close()


# ----------------------------------------------------------------------
# ServingConfig + make_index
# ----------------------------------------------------------------------


class TestServingConfig:
    def test_defaults_valid(self):
        cfg = ServingConfig()
        assert cfg.index == "exact"

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown serving index"):
            ServingConfig(index="faiss")
        with pytest.raises(ConfigError, match="num_lists"):
            ServingConfig(num_lists=0)
        with pytest.raises(ConfigError, match="nprobe"):
            ServingConfig(num_lists=4, nprobe=5)
        with pytest.raises(ConfigError, match="batch_size"):
            ServingConfig(batch_size=0)

    def test_schema_roundtrip(self):
        from repro.config import EntitySchema, RelationSchema

        cfg = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[RelationSchema(
                name="r", lhs="node", rhs="node", operator="identity"
            )],
            dimension=16,
            serving=ServingConfig(index="ivfpq", num_lists=8, nprobe=2),
        )
        back = ConfigSchema.from_json(cfg.to_json())
        assert back.serving == cfg.serving
        assert back.serving.index == "ivfpq"

    def test_make_index(self):
        exact = make_index(ServingConfig(index="exact"), "l2")
        assert isinstance(exact, ExactIndex)
        ivf = make_index(
            ServingConfig(index="ivfpq", num_lists=7, nprobe=3), "dot"
        )
        assert isinstance(ivf, IVFPQIndex)
        assert ivf.num_lists == 7 and ivf.nprobe == 3
        assert ivf.comparator == "dot"


# ----------------------------------------------------------------------
# CLI: export --format mmap / serve / query
# ----------------------------------------------------------------------


class TestServingCLI:
    @pytest.fixture
    def trained(self, tmp_path):
        from repro.cli import main, save_edges
        from repro.config import EntitySchema, RelationSchema
        from repro.graph.edgelist import EdgeList

        n = 60
        rng = np.random.default_rng(0)
        src = np.concatenate([np.arange(n), rng.integers(0, n, 300)])
        dst = np.concatenate(
            [(np.arange(n) + 1) % n,
             (src[n:] + rng.integers(1, 3, 300)) % n]
        )
        edges = EdgeList(src, np.zeros(len(src), dtype=np.int64), dst)
        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[RelationSchema(
                name="next", lhs="node", rhs="node", operator="identity"
            )],
            dimension=8, num_epochs=2, batch_size=120, chunk_size=60,
            num_batch_negs=10, num_uniform_negs=10, lr=0.1,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(config.to_json())
        edges_path = tmp_path / "train.npz"
        save_edges(edges_path, edges)
        ckpt = tmp_path / "model"
        assert main([
            "train", "--config", str(config_path),
            "--edges", str(edges_path), "--checkpoint", str(ckpt),
        ]) == 0
        return tmp_path, ckpt

    def test_export_mmap_and_query(self, trained, capsys):
        from repro.cli import main

        tmp_path, ckpt = trained
        snaps = tmp_path / "snaps"
        rc = main([
            "export", "--checkpoint", str(ckpt),
            "--entity-type", "node", "--output", str(snaps),
            "--format", "mmap",
        ])
        assert rc == 0
        assert "published snapshot v1" in capsys.readouterr().out
        assert (snaps / "v-000001" / MANIFEST_NAME).exists()

        rc = main([
            "query", "--snapshots", str(snaps), "--ids", "0,5",
            "--k", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "snapshot v1, top-3:" in out
        assert "  0: " in out and "  5: " in out

    def test_serve_exact_vs_full_probe_ivf(self, trained, capsys):
        from repro.cli import main

        tmp_path, ckpt = trained
        snaps = tmp_path / "snaps"
        main([
            "export", "--checkpoint", str(ckpt),
            "--entity-type", "node", "--output", str(snaps),
            "--format", "mmap",
        ])
        queries = tmp_path / "queries.npy"
        table = MmapShardedTable.open(snaps)
        np.save(queries, np.asarray(table.as_array()[:10]))
        table.close()
        capsys.readouterr()

        out_exact = tmp_path / "exact.npz"
        rc = main([
            "serve", "--snapshots", str(snaps),
            "--queries", str(queries), "--k", "4",
            "--index", "exact", "--output", str(out_exact),
        ])
        assert rc == 0
        assert "index: exact over 60 items" in capsys.readouterr().out

        out_ivf = tmp_path / "ivf.npz"
        rc = main([
            "serve", "--snapshots", str(snaps),
            "--queries", str(queries), "--k", "4",
            "--index", "ivfpq", "--num-lists", "4", "--nprobe", "4",
            "--output", str(out_ivf),
        ])
        assert rc == 0
        assert "index: ivfpq" in capsys.readouterr().out

        with np.load(out_exact) as e, np.load(out_ivf) as a:
            # Full probe: the approximate CLI path is
            # bit-identical to the exact one.
            np.testing.assert_array_equal(e["indices"], a["indices"])
            np.testing.assert_array_equal(e["scores"], a["scores"])

    def test_serve_without_snapshot_errors(self, tmp_path, capsys):
        from repro.cli import main

        queries = tmp_path / "q.npy"
        np.save(queries, np.zeros((1, 4), dtype=np.float32))
        rc = main([
            "serve", "--snapshots", str(tmp_path / "missing"),
            "--queries", str(queries),
        ])
        assert rc == 2
        assert "no published snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["bit_flip", "truncate", "npy_version"])
    def test_damaged_snapshot_exits_2(self, tmp_path, capsys, damage):
        """Cold start on a damaged version, or on one in the retired
        ``.npy`` format: exit 2 with an error naming the file."""
        from repro.cli import main

        emb, _ = _clustered()
        snaps = tmp_path / "snaps"
        vdir = snaps / "v-000001"
        if damage == "npy_version":
            vdir.mkdir(parents=True)
            bad = vdir / "shard-00000.npy"
            np.save(bad, emb)
            np.save(vdir / "layout_part.npy", np.zeros(len(emb), np.int64))
            np.save(vdir / "layout_offset.npy", np.arange(len(emb)))
            (vdir / MANIFEST_NAME).write_text(json.dumps({
                "version": 1, "entity_type": "node", "comparator": "cos",
                "dim": emb.shape[1], "count": len(emb), "source": {},
                "shards": [
                    {"part": 0, "rows": len(emb), "file": bad.name}
                ],
            }))
            (snaps / "CURRENT").write_text("v-000001\n")
        else:
            publish_embeddings(snaps, emb)
            bad = vdir / "shard-00000.bin"
            _damage(bad, damage)
        queries = tmp_path / "q.npy"
        np.save(queries, emb[:3])
        for argv in (["serve", "--queries", str(queries)],
                     ["query", "--ids", "0,1"]):
            assert main([*argv, "--snapshots", str(snaps)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(bad) in err

    def test_export_mmap_unknown_entity(self, trained, capsys):
        from repro.cli import main

        tmp_path, ckpt = trained
        with pytest.raises(ServingError, match="not in checkpoint"):
            main([
                "export", "--checkpoint", str(ckpt),
                "--entity-type", "ghost",
                "--output", str(tmp_path / "snaps"),
                "--format", "mmap",
            ])
