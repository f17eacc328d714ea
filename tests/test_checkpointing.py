"""Tests for whole-model checkpointing (save_model / load_model)."""

import json

import numpy as np
import pytest

from repro.config import (
    ConfigError,
    ConfigSchema,
    EntitySchema,
    RelationSchema,
)
from repro.core.checkpointing import load_manifest, load_model, save_model
from repro.core.model import EmbeddingModel
from repro.core.trainer import Trainer
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities


def _graph(n=100, seed=0):
    rng = np.random.default_rng(seed)
    src = np.arange(n)
    dst = (src + 1) % n
    es = rng.integers(0, n, 500)
    ed = (es + 1) % n
    return EdgeList(
        np.concatenate([src, es]),
        np.zeros(n + 500, dtype=np.int64),
        np.concatenate([dst, ed]),
    )


def _trained_model(n=100, nparts=1, seed=0):
    config = ConfigSchema(
        entities={"node": EntitySchema(num_partitions=nparts)},
        relations=[
            RelationSchema(name="r", lhs="node", rhs="node",
                           operator="translation")
        ],
        dimension=8, num_epochs=2, batch_size=100, chunk_size=20,
        num_batch_negs=5, num_uniform_negs=5, seed=seed,
    )
    entities = EntityStorage({"node": n})
    entities.set_partitioning(
        "node", partition_entities(n, nparts, np.random.default_rng(seed))
    )
    model = EmbeddingModel(config, entities)
    model.init_all_partitions(np.random.default_rng(seed))
    return config, entities, model


class TestSaveLoadRoundtrip:
    def test_scores_identical_after_roundtrip(self, tmp_path):
        config, entities, model = _trained_model()
        Trainer(config, model, entities).train(_graph())
        save_model(tmp_path, model, entities, metadata={"epoch": 1})

        config2, entities2, model2, metadata = load_model(tmp_path)
        assert metadata["epoch"] == 1
        assert config2 == config
        assert entities2.count("node") == 100
        emb1 = model.global_embeddings("node")
        emb2 = model2.global_embeddings("node")
        np.testing.assert_array_equal(emb1, emb2)
        np.testing.assert_array_equal(
            model.rel_params[0], model2.rel_params[0]
        )

    def test_optimizer_state_restored(self, tmp_path):
        config, entities, model = _trained_model()
        Trainer(config, model, entities).train(_graph())
        save_model(tmp_path, model, entities)
        _, _, model2, _ = load_model(tmp_path)
        np.testing.assert_array_equal(
            model.get_table("node", 0).optimizer.state,
            model2.get_table("node", 0).optimizer.state,
        )
        np.testing.assert_array_equal(
            model.rel_optimizers[0].state, model2.rel_optimizers[0].state
        )

    def test_partition_layout_restored(self, tmp_path):
        config, entities, model = _trained_model(nparts=4)
        save_model(tmp_path, model, entities)
        _, entities2, model2, _ = load_model(tmp_path)
        p1 = entities.partitioning("node")
        p2 = entities2.partitioning("node")
        np.testing.assert_array_equal(p1.part_of, p2.part_of)
        np.testing.assert_array_equal(p1.offset_of, p2.offset_of)
        # Global embedding stitching must agree.
        np.testing.assert_array_equal(
            model.global_embeddings("node"),
            model2.global_embeddings("node"),
        )

    def test_resume_training_continues(self, tmp_path):
        """A loaded model can keep training without reinitialisation."""
        config, entities, model = _trained_model()
        edges = _graph()
        Trainer(config, model, entities).train(edges)
        save_model(tmp_path, model, entities)
        _, entities2, model2, _ = load_model(tmp_path)
        stats = Trainer(
            config.replace(num_epochs=1), model2, entities2
        ).train(edges)
        assert stats.epochs[0].num_edges == len(edges)


class TestTrainerCheckpointIntegration:
    def test_checkpoint_dir_writes_every_epoch(self, tmp_path):
        config, entities, model = _trained_model()
        config = config.replace(
            checkpoint_dir=str(tmp_path / "ckpt"), num_epochs=3
        )
        Trainer(config, model, entities).train(_graph())
        _, _, model2, metadata = load_model(tmp_path / "ckpt")
        assert metadata["epoch"] == 2
        np.testing.assert_array_equal(
            model.global_embeddings("node"),
            model2.global_embeddings("node"),
        )


class TestFeaturizedCheckpoint:
    def test_feature_weights_in_shared(self, tmp_path):
        from repro.core.tables import FeaturizedEmbeddingTable

        config = ConfigSchema(
            entities={
                "user": EntitySchema(),
                "tagged": EntitySchema(featurized=True),
            },
            relations=[RelationSchema(name="r", lhs="user", rhs="tagged")],
            dimension=4,
        )
        entities = EntityStorage({"user": 10, "tagged": 5})
        model = EmbeddingModel(config, entities)
        model.init_partition("user", 0, np.random.default_rng(0))
        table = FeaturizedEmbeddingTable.create(
            [[0], [1], [2], [3, 4], [5]], 6, 4, np.random.default_rng(1)
        )
        model.set_table("tagged", 0, table)
        save_model(tmp_path, model, entities)

        from repro.graph.storage import CheckpointStorage

        shared = CheckpointStorage(tmp_path).load_shared()
        assert "features_tagged" in shared
        np.testing.assert_array_equal(
            shared["features_tagged"], table.feature_weights
        )

    def test_load_skips_featurized_tables(self, tmp_path):
        """load_model leaves featurized types for the caller to attach."""
        self.test_feature_weights_in_shared(tmp_path)
        _, _, model, _ = load_model(tmp_path)
        assert model.has_table("user", 0)
        assert not model.has_table("tagged", 0)


class TestCheckpointWithRemovedFields:
    """A checkpoint written while ``RelationSchema.all_negs`` and
    ``EntitySchema.num_features`` existed has both in its config.json
    (``to_dict`` wrote every field)."""

    def _old_checkpoint(self, path, all_negs):
        config, entities, model = _trained_model()
        save_model(path, model, entities)
        data = json.loads((path / "config.json").read_text())
        data["entities"]["node"]["num_features"] = 0
        data["relations"][0]["all_negs"] = all_negs
        (path / "config.json").write_text(json.dumps(data))
        return config, model

    def test_loads_at_the_old_defaults(self, tmp_path):
        config, model = self._old_checkpoint(tmp_path, all_negs=False)
        config2, _, model2, _ = load_model(tmp_path)
        assert config2 == config
        np.testing.assert_array_equal(
            model.global_embeddings("node"), model2.global_embeddings("node")
        )

    def test_all_negatives_mode_is_refused(self, tmp_path):
        self._old_checkpoint(tmp_path, all_negs=True)
        with pytest.raises(ConfigError, match="RelationSchema.*all_negs"):
            load_model(tmp_path)


class TestErrorPaths:
    def test_load_missing_checkpoint(self, tmp_path):
        from repro.graph.storage import StorageError

        with pytest.raises(StorageError):
            load_model(tmp_path / "nope")

    @pytest.mark.parametrize("load", [load_model, load_manifest])
    def test_damaged_config_is_a_storage_error_naming_the_file(self, tmp_path, load):
        from repro.graph.storage import StorageError

        _, entities, model = _trained_model()
        save_model(tmp_path, model, entities)
        path = tmp_path / "config.json"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(StorageError, match=f"corrupt config at {path}"):
            load(tmp_path)

    def test_failed_text_write_leaves_the_old_file_and_no_temp(self, tmp_path):
        from repro.graph.storage import CheckpointStorage

        _, entities, model = _trained_model()
        save_model(tmp_path, model, entities)
        before = sorted(tmp_path.iterdir())
        config = (tmp_path / "config.json").read_bytes()
        with pytest.raises(UnicodeEncodeError):
            CheckpointStorage(tmp_path).save_config("\ud800")  # unencodable
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "config.json").read_bytes() == config
