"""Tests for on-disk partition and checkpoint storage."""

import numpy as np
import pytest

from repro.analysis import hooks
from repro.graph.storage import (
    CheckpointStorage,
    PartitionPipeline,
    PartitionedEmbeddingStorage,
    StorageError,
)
from tests.helpers import counts


class TestPartitionedEmbeddingStorage:
    def test_roundtrip_bit_exact(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((10, 4)).astype(np.float32)
        state = rng.random(10).astype(np.float32)
        store.save("node", 3, emb, state)
        emb2, state2 = store.load("node", 3)
        np.testing.assert_array_equal(emb, emb2)
        np.testing.assert_array_equal(state, state2)

    def test_missing_partition(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        with pytest.raises(StorageError, match="no stored partition"):
            store.load("node", 0)

    def test_overwrite(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        a = np.zeros((2, 2), dtype=np.float32)
        b = np.ones((2, 2), dtype=np.float32)
        s = np.zeros(2, dtype=np.float32)
        store.save("node", 0, a, s)
        store.save("node", 0, b, s)
        emb, _ = store.load("node", 0)
        np.testing.assert_array_equal(emb, b)

    def test_row_mismatch_rejected(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        with pytest.raises(ValueError, match="matching rows"):
            store.save(
                "node", 0,
                np.zeros((3, 2), dtype=np.float32),
                np.zeros(2, dtype=np.float32),
            )

    def test_exists_and_drop(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        emb = np.zeros((1, 1), dtype=np.float32)
        state = np.zeros(1, dtype=np.float32)
        assert not store.exists("node", 0)
        store.save("node", 0, emb, state)
        assert store.exists("node", 0)
        store.drop("node", 0)
        assert not store.exists("node", 0)
        store.drop("node", 0)  # idempotent

    def test_stored_partitions_sorted(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        emb = np.zeros((1, 1), dtype=np.float32)
        state = np.zeros(1, dtype=np.float32)
        for p in (5, 1, 3):
            store.save("node", p, emb, state)
        assert store.stored_partitions("node") == [1, 3, 5]
        assert store.stored_partitions("ghost") == []

    def test_multiple_entity_types_isolated(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        emb = np.zeros((1, 1), dtype=np.float32)
        state = np.zeros(1, dtype=np.float32)
        store.save("user", 0, emb, state)
        store.save("item", 0, emb + 1, state)
        u, _ = store.load("user", 0)
        i, _ = store.load("item", 0)
        assert u[0, 0] == 0 and i[0, 0] == 1

    def test_corrupt_file_raises_storage_error(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        emb = np.zeros((1, 1), dtype=np.float32)
        state = np.zeros(1, dtype=np.float32)
        store.save("node", 0, emb, state)
        path = tmp_path / "node" / "part-00000.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(StorageError, match="corrupt"):
            store.load("node", 0)

    def test_float64_downcast_on_save(self, tmp_path):
        """Storage normalises to float32 (the training dtype)."""
        store = PartitionedEmbeddingStorage(tmp_path)
        emb = np.ones((2, 2), dtype=np.float64)
        state = np.ones(2, dtype=np.float64)
        store.save("node", 0, emb, state)
        emb2, state2 = store.load("node", 0)
        assert emb2.dtype == np.float32 and state2.dtype == np.float32

    def test_nbytes(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path)
        assert store.nbytes() == 0
        store.save(
            "node", 0,
            np.zeros((100, 10), dtype=np.float32),
            np.zeros(100, dtype=np.float32),
        )
        assert store.nbytes() > 100 * 10 * 4


class TestCheckpointStorage:
    def test_config_roundtrip(self, tmp_path):
        ckpt = CheckpointStorage(tmp_path)
        assert not ckpt.exists()
        ckpt.save_config('{"a": 1}')
        assert ckpt.exists()
        assert ckpt.load_config() == '{"a": 1}'

    def test_missing_config(self, tmp_path):
        with pytest.raises(StorageError):
            CheckpointStorage(tmp_path).load_config()

    def test_metadata_roundtrip(self, tmp_path):
        ckpt = CheckpointStorage(tmp_path)
        ckpt.save_metadata({"epoch": 7, "note": "hello"})
        assert ckpt.load_metadata() == {"epoch": 7, "note": "hello"}

    def test_corrupt_metadata(self, tmp_path):
        ckpt = CheckpointStorage(tmp_path)
        (tmp_path / "metadata.json").write_text("{not json")
        with pytest.raises(StorageError, match="corrupt"):
            ckpt.load_metadata()

    def test_shared_roundtrip(self, tmp_path):
        ckpt = CheckpointStorage(tmp_path)
        arrays = {
            "rel_0": np.arange(4, dtype=np.float32),
            "rel_1": np.eye(2, dtype=np.float32),
        }
        ckpt.save_shared(arrays)
        loaded = ckpt.load_shared()
        assert set(loaded) == {"rel_0", "rel_1"}
        np.testing.assert_array_equal(loaded["rel_1"], np.eye(2))

    def test_missing_shared(self, tmp_path):
        with pytest.raises(StorageError):
            CheckpointStorage(tmp_path).load_shared()

    def test_embedded_partition_store(self, tmp_path):
        ckpt = CheckpointStorage(tmp_path)
        emb = np.ones((2, 3), dtype=np.float32)
        state = np.zeros(2, dtype=np.float32)
        ckpt.partitions.save("node", 0, emb, state)
        emb2, _ = ckpt.partitions.load("node", 0)
        np.testing.assert_array_equal(emb, emb2)


class TestCheckpointModelRoundtrip:
    def test_full_model_checkpoint(self, tmp_path):
        """Save a trained model, restore it, identical scores."""
        from repro.config import ConfigSchema, EntitySchema, RelationSchema
        from repro.core.model import EmbeddingModel
        from repro.core.tables import DenseEmbeddingTable
        from repro.graph.entity_storage import EntityStorage

        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[
                RelationSchema(
                    name="r", lhs="node", rhs="node", operator="translation"
                )
            ],
            dimension=8,
        )
        entities = EntityStorage({"node": 20})
        model = EmbeddingModel(config, entities)
        model.init_all_partitions(np.random.default_rng(0))
        model.rel_params[0][:] = 0.5

        ckpt = CheckpointStorage(tmp_path)
        ckpt.save_config(config.to_json())
        table = model.get_table("node", 0)
        ckpt.partitions.save("node", 0, table.weights, table.optimizer.state)
        ckpt.save_shared(model.get_shared_params())
        ckpt.save_metadata({"epoch": 3})

        config2 = ConfigSchema.from_json(ckpt.load_config())
        assert config2 == config
        model2 = EmbeddingModel(config2, EntityStorage({"node": 20}))
        emb, state = ckpt.partitions.load("node", 0)
        model2.set_table("node", 0, DenseEmbeddingTable(emb, state))
        model2.set_shared_params(ckpt.load_shared())

        rng = np.random.default_rng(1)
        s = model.get_table("node", 0).weights[:5]
        d = model.get_table("node", 0).weights[5:10]
        np.testing.assert_allclose(
            model.score_pairs(0, s, d), model2.score_pairs(0, s, d)
        )
        del rng


class TestStorageRoundtripFuzz:
    """Round-trip fuzzing of the partition store and the pipeline.

    Random dtypes and shapes, interleaved save/load/drop, and (for the
    pipeline) random parks / takes / prefetches / drains, checked
    against a pure-python oracle. The storage layer
    always lands float32 on disk, so the oracle compares float32 casts
    (exact for every input dtype: float64/float32/float16 all embed
    losslessly into or round deterministically to float32).
    """

    DTYPES = [np.float16, np.float32, np.float64]

    def _random_partition(self, rng):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 9))
        dtype = self.DTYPES[int(rng.integers(len(self.DTYPES)))]
        emb = rng.standard_normal((n, d)).astype(dtype)
        state = rng.random(n).astype(dtype)
        return emb, state

    @pytest.mark.parametrize("seed", range(3))
    def test_storage_interleaved_save_load_drop(self, tmp_path, seed):
        store = PartitionedEmbeddingStorage(tmp_path)
        rng = np.random.default_rng(seed)
        keys = [("node", p) for p in range(3)] + [("item", p) for p in range(2)]
        disk: dict = {}
        for _ in range(150):
            key = keys[int(rng.integers(len(keys)))]
            op = rng.random()
            if op < 0.45:
                emb, state = self._random_partition(rng)
                store.save(*key, emb, state)
                disk[key] = (
                    emb.astype(np.float32), state.astype(np.float32)
                )
            elif op < 0.8:
                if key in disk:
                    emb, state = store.load(*key)
                    assert emb.dtype == np.float32
                    np.testing.assert_array_equal(emb, disk[key][0])
                    np.testing.assert_array_equal(state, disk[key][1])
                else:
                    with pytest.raises(StorageError):
                        store.load(*key)
                    assert not store.exists(*key)
            else:
                store.drop(*key)
                disk.pop(key, None)
        for etype in ("node", "item"):
            assert store.stored_partitions(etype) == sorted(
                p for (t, p) in disk if t == etype
            )

    @pytest.fixture
    def untracked(self):
        """The oracles park keys that are still staged, which no
        trainer does and the ownership tracker (armed suite-wide under
        REPRO_LOCKDEP=1) rightly flags; they check bytes, not
        ownership."""
        hooks.uninstall_ownership_tracker()

    @pytest.mark.parametrize("synchronous", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_pipeline_interleaved_ops_match_oracle(
        self, tmp_path, seed, synchronous, untracked
    ):
        """Interleaved park/take/prefetch/drain through the pipeline
        must always reproduce the latest version of each partition,
        whichever state its staged copy is in (prefetched, write in
        flight, landed, superseded by a newer park)."""
        store = PartitionedEmbeddingStorage(tmp_path)
        # Unlimited budget: the oracle mirrors the staged set exactly
        # (entries only leave via take). Budget pressure is exercised
        # separately below.
        pipe = PartitionPipeline(store, synchronous=synchronous)
        rng = np.random.default_rng(seed)
        keys = [("node", p) for p in range(4)]
        latest: dict = {}    # key -> float32 oracle of the staged copy
        staged: set = set()
        stored: dict = {}    # key -> float32 oracle of backend contents
        for _ in range(200):
            key = keys[int(rng.integers(len(keys)))]
            op = rng.random()
            if op < 0.4:  # eviction (park)
                emb, state = self._random_partition(rng)
                pipe.park(*key, emb, state)
                # The write is submitted at park; the store catches up
                # by the time anything reads it.
                stored[key] = latest[key] = (
                    emb.astype(np.float32), state.astype(np.float32)
                )
                if not synchronous:
                    staged.add(key)
            elif op < 0.7:  # swap-in (take)
                got, from_staged = pipe.take(*key)
                assert from_staged == (key in staged)
                # Served from memory, else a synchronous backend read,
                # else it was never stored anywhere.
                expected = latest[key] if from_staged else stored.get(key)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None, key
                    emb, state = got
                    np.testing.assert_array_equal(
                        np.asarray(emb, np.float32), expected[0]
                    )
                    np.testing.assert_array_equal(
                        np.asarray(state, np.float32), expected[1]
                    )
                staged.discard(key)
            elif op < 0.85:  # prefetch: clean reload from the backend
                wanted = key not in staged and key in stored
                scheduled = pipe.schedule([key])
                pipe.settle()
                if synchronous:
                    assert scheduled == 0
                elif wanted:
                    staged.add(key)
                    latest[key] = stored[key]
            else:  # barrier
                pipe.drain()
                for k, version in stored.items():
                    got_emb, got_state = store.load(*k)
                    np.testing.assert_array_equal(got_emb, version[0])
                    np.testing.assert_array_equal(got_state, version[1])
        pipe.close()
        # After the final barrier the backend holds the last parked
        # version of every partition.
        for key, (emb, state) in stored.items():
            got_emb, got_state = store.load(*key)
            np.testing.assert_array_equal(got_emb, emb)
            np.testing.assert_array_equal(got_state, state)

    @pytest.mark.parametrize("budget", [0, 256])
    def test_pipeline_budget_pressure_never_loses_data(
        self, tmp_path, budget, untracked
    ):
        """Under byte-budget pressure evicted entries must have landed
        before they are dropped: take() falls back to the backend and
        still sees the latest version."""
        store = PartitionedEmbeddingStorage(tmp_path)
        pipe = PartitionPipeline(store, budget_bytes=budget)
        rng = np.random.default_rng(11)
        latest: dict = {}
        keys = [("node", p) for p in range(4)]
        for step in range(120):
            key = keys[int(rng.integers(len(keys)))]
            if rng.random() < 0.6 or key not in latest:
                emb, state = self._random_partition(rng)
                pipe.park(*key, emb, state)
                latest[key] = (
                    emb.astype(np.float32), state.astype(np.float32)
                )
            else:
                got, _ = pipe.take(*key)
                assert got is not None, key
                np.testing.assert_array_equal(
                    np.asarray(got[0], np.float32), latest[key][0]
                )
                np.testing.assert_array_equal(
                    np.asarray(got[1], np.float32), latest[key][1]
                )
                del latest[key]
            if budget:
                assert pipe.nbytes() <= budget
        assert counts(pipe.metrics)["pipeline.cache_evictions"] > 0
        pipe.close()
