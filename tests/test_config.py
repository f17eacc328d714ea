"""Tests for the configuration schema."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    ConfigError,
    ConfigSchema,
    EntitySchema,
    RelationSchema,
    fingerprint,
    single_entity_config,
)

HISTORY = Path(__file__).resolve().parents[1] / "benchmarks" / (
    "baseline_history.jsonl"
)


def _minimal(**kw):
    return ConfigSchema(
        entities={"node": EntitySchema()},
        relations=[RelationSchema(name="r", lhs="node", rhs="node")],
        **kw,
    )


class TestEntitySchema:
    def test_defaults(self):
        e = EntitySchema()
        assert e.num_partitions == 1 and not e.featurized

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            EntitySchema(num_partitions=0)

    def test_featurized_cannot_partition(self):
        with pytest.raises(ValueError):
            EntitySchema(featurized=True, num_partitions=2)


class TestRelationSchema:
    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator"):
            RelationSchema(name="r", lhs="a", rhs="b", operator="warp")

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            RelationSchema(name="r", lhs="a", rhs="b", weight=0.0)


class TestConfigSchema:
    def test_minimal_valid(self):
        cfg = _minimal()
        assert cfg.dimension == 100

    def test_unknown_entity_reference(self):
        with pytest.raises(ValueError, match="unknown lhs entity"):
            ConfigSchema(
                entities={"node": EntitySchema()},
                relations=[RelationSchema(name="r", lhs="ghost", rhs="node")],
            )

    def test_duplicate_relation_names(self):
        with pytest.raises(ValueError, match="unique"):
            ConfigSchema(
                entities={"node": EntitySchema()},
                relations=[
                    RelationSchema(name="r", lhs="node", rhs="node"),
                    RelationSchema(name="r", lhs="node", rhs="node"),
                ],
            )

    def test_complex_requires_even_dimension(self):
        with pytest.raises(ValueError, match="even dimension"):
            ConfigSchema(
                entities={"node": EntitySchema()},
                relations=[
                    RelationSchema(
                        name="r", lhs="node", rhs="node",
                        operator="complex_diagonal",
                    )
                ],
                dimension=7,
            )

    def test_no_negatives_rejected(self):
        with pytest.raises(ValueError, match="at least one source"):
            _minimal(num_batch_negs=0, num_uniform_negs=0)

    def test_chunk_larger_than_batch(self):
        with pytest.raises(ValueError, match="chunk_size"):
            _minimal(batch_size=10, chunk_size=20)

    def test_distributed_needs_enough_partitions(self):
        with pytest.raises(ValueError, match="P/2"):
            ConfigSchema(
                entities={"node": EntitySchema(num_partitions=2)},
                relations=[RelationSchema(name="r", lhs="node", rhs="node")],
                num_machines=2,
            )
        # 4 partitions for 2 machines is fine.
        ConfigSchema(
            entities={"node": EntitySchema(num_partitions=4)},
            relations=[RelationSchema(name="r", lhs="node", rhs="node")],
            num_machines=2,
        )

    def test_relation_lr_default(self):
        assert _minimal(lr=0.3).relation_lr_effective == 0.3
        assert _minimal(lr=0.3, relation_lr=0.01).relation_lr_effective == 0.01

    def test_json_roundtrip(self):
        cfg = ConfigSchema(
            entities={
                "user": EntitySchema(num_partitions=8),
                "tag": EntitySchema(featurized=True),
            },
            relations=[
                RelationSchema(
                    name="likes", lhs="user", rhs="tag",
                    operator="diagonal", weight=2.0,
                )
            ],
            dimension=32,
            loss="softmax",
            bucket_order="chained",
        )
        restored = ConfigSchema.from_json(cfg.to_json())
        assert restored == cfg

    def test_replace(self):
        cfg = _minimal(dimension=16)
        cfg2 = cfg.replace(dimension=32, lr=0.5)
        assert cfg2.dimension == 32 and cfg2.lr == 0.5
        assert cfg.dimension == 16  # original untouched

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            _minimal().replace(dimension=-1)

    def test_single_entity_config(self):
        cfg = single_entity_config(
            num_partitions=4, operator="translation",
            relation_names=("a", "b"), dimension=10,
        )
        assert set(cfg.entities) == {"node"}
        assert [r.name for r in cfg.relations] == ["a", "b"]
        assert all(r.operator == "translation" for r in cfg.relations)
        assert cfg.entities["node"].num_partitions == 4

    def test_eval_fraction_bounds(self):
        with pytest.raises(ValueError):
            _minimal(eval_fraction=1.0)
        _minimal(eval_fraction=0.05)

    def test_bad_bucket_order(self):
        with pytest.raises(ValueError, match="bucket_order"):
            _minimal(bucket_order="spiral")


class TestPartitionCompressionConfig:
    def test_defaults(self):
        cfg = _minimal()
        assert cfg.partition_compression == "none"
        assert cfg.writeback_delta is False

    def test_valid_codecs_accepted(self):
        for name in ("none", "fp16", "int8"):
            assert _minimal(
                partition_compression=name
            ).partition_compression == name

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="partition_compression"):
            _minimal(partition_compression="zstd")

    def test_roundtrips_through_json(self):
        cfg = _minimal(partition_compression="int8", writeback_delta=True)
        again = ConfigSchema.from_json(cfg.to_json())
        assert again.partition_compression == "int8"
        assert again.writeback_delta is True


class TestUnknownKeys:
    """A key no field reads fails loudly in every nested dataclass —
    including the removed knobs a config file might still carry."""

    @pytest.mark.parametrize("path, key, owner", [
        ((), "num_negs", "ConfigSchema"),
        (("entities", "node"), "num_features", "EntitySchema"),
        (("relations", 0), "all_negs", "RelationSchema"),
        (("serving",), "probes", "ServingConfig"),
    ])
    def test_unknown_key_names_class_and_key(self, path, key, owner):
        data = json.loads(_minimal().to_json())
        target = data
        for step in path:
            target = target[step]
        target[key] = True
        with pytest.raises(ConfigError, match=rf"unknown {owner} .*{key}"):
            ConfigSchema.from_dict(data)


class TestScalarTypes:
    """A scalar field takes only what its annotation names: ``int`` no
    ``bool``, ``float`` also an ``int``, ``X | None`` also ``null``."""

    @pytest.mark.parametrize("path, key, value", [
        ((), "dimension", "8"), ((), "dimension", 8.5), ((), "num_epochs", False),
        ((), "lr", "0.1"), ((), "relation_lr", True), ((), "pipeline", 0),
        ((), "checkpoint_dir", 1), (("entities", "node"), "num_partitions", None),
        (("relations", 0), "weight", "1"), (("serving",), "nprobe", 2.0),
    ])
    def test_wrong_type_names_the_field(self, path, key, value):
        data = json.loads(_minimal().to_json())
        target = data
        for step in path:
            target = target[step]
        target[key] = value
        with pytest.raises(ConfigError, match=rf"\.{key} must be "):
            ConfigSchema.from_dict(data)

    def test_ints_for_floats_and_nulls_for_optionals(self):
        data = json.loads(_minimal().to_json())
        data.update(lr=1, margin=0, relation_lr=None, partition_cache_budget=None)
        data["relations"][0]["weight"] = 2
        config = ConfigSchema.from_dict(data)
        assert config.lr == 1 and config.relations[0].weight == 2


#: What ``to_dict`` wrote while ``ConfigSchema.disable_batch_negs``,
#: ``EntitySchema.num_features``, ``RelationSchema.all_negs`` and
#: ``ServingConfig``'s ``pq_subvectors``, ``refine``, ``kmeans_iters``
#: and ``train_sample`` existed (every field, so every such checkpoint's
#: config.json carries them all).
_OLD_CONFIG = {
    "batch_size": 1000, "bucket_order": "inside_out", "checkpoint_dir": None,
    "chunk_size": 50, "comparator": "dot", "dimension": 8,
    "disable_batch_negs": False,
    "entities": {
        "tag": {"featurized": True, "num_features": 8, "num_partitions": 1},
        "user": {"featurized": False, "num_features": 0, "num_partitions": 2},
    },
    "eval_fraction": 0.0, "loss": "ranking", "lr": 0.1, "margin": 0.1,
    "num_batch_negs": 50, "num_epochs": 5, "num_machines": 1,
    "num_uniform_negs": 50, "num_workers": 1, "parameter_sync_interval": 10,
    "partition_cache_budget": None, "partition_compression": "none",
    "pipeline": False, "relation_lr": None,
    "relations": [{
        "all_negs": False, "lhs": "user", "name": "likes",
        "operator": "translation", "rhs": "tag", "weight": 1.0,
    }],
    "seed": 0,
    "serving": {
        "batch_size": 1024, "default_k": 10, "index": "exact",
        "kmeans_iters": 10, "nprobe": 8, "num_lists": 64,
        "pq_subvectors": 0, "refine": 0, "seed": 0,
        "slow_batch_seconds": 0.0, "train_sample": 20000,
    },
    "stratum_passes": 1, "trace_path": None, "writeback_delta": False,
}


class TestRemovedFields:
    def test_config_written_before_removal_loads(self):
        assert ConfigSchema.from_dict(_OLD_CONFIG) == ConfigSchema(
            entities={
                "tag": EntitySchema(featurized=True),
                "user": EntitySchema(num_partitions=2),
            },
            relations=[RelationSchema(
                name="likes", lhs="user", rhs="tag", operator="translation",
            )],
            dimension=8,
        )

    @pytest.mark.parametrize("path, key, value", [
        (("relations", 0), "all_negs", True),
        (("entities", "user"), "num_features", 3),
        (("entities", "user"), "num_features", False),
        (("entities", "tag"), "num_features", 0),
        (("serving",), "pq_subvectors", 4),
        (("serving",), "pq_subvectors", False),
        (("serving",), "refine", 2),
        (("serving",), "kmeans_iters", 20),
        (("serving",), "train_sample", 1000),
        ((), "disable_batch_negs", True),
    ])
    def test_other_values_are_unknown_keys(self, path, key, value):
        data = json.loads(json.dumps(_OLD_CONFIG))
        target = data
        for step in path:
            target = target[step]
        target[key] = value
        with pytest.raises(ConfigError, match=rf"unknown \w+ key\(s\): {key}"):
            ConfigSchema.from_dict(data)


    def test_unbatched_config_is_refused_by_train(self, tmp_path, capsys):
        """Figure 4's baseline is ``chunk_size: 1, num_batch_negs: 0``
        now: a config that still asks for the removed flag makes ``repro
        train`` print ``error:`` and exit 2."""
        from repro.cli import main

        data = json.loads(json.dumps(_OLD_CONFIG))
        data["disable_batch_negs"] = True
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        edges_path = tmp_path / "edges.npz"
        np.savez(edges_path, src=np.arange(4), rel=np.zeros(4, dtype=np.int64),
                 dst=np.arange(4))
        assert main([
            "train", "--config", str(config_path), "--edges", str(edges_path),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "disable_batch_negs" in err

    def test_serving_section_written_now(self):
        assert _minimal().to_dict()["serving"] == {
            "batch_size": 1024, "default_k": 10, "index": "exact",
            "nprobe": 8, "num_lists": 64, "seed": 0,
            "slow_batch_seconds": 0.0,
        }

    def test_retired_serving_values_are_the_index_defaults(self):
        from repro.serving import IVFPQIndex

        index = IVFPQIndex()
        data = json.loads(json.dumps(_OLD_CONFIG))
        data["serving"].update(
            kmeans_iters=index.kmeans_iters, train_sample=index.train_sample,
        )
        assert ConfigSchema.from_dict(data) == ConfigSchema.from_dict(
            _OLD_CONFIG
        )


class TestFingerprint:
    def test_config_fingerprint_excludes_output_paths(self):
        cfg = _minimal(checkpoint_dir="ckpt", trace_path="t.json")
        params = cfg.to_dict()
        del params["checkpoint_dir"], params["trace_path"]
        assert cfg.fingerprint() == fingerprint(params)

    def test_fingerprint_is_key_order_independent(self):
        params = {"b": 2, "a": [1, 2.5], "c": {"y": None, "x": "s"}}
        reordered = {"c": {"x": "s", "y": None}, "a": [1, 2.5], "b": 2}
        blob = json.dumps(params, sort_keys=True).encode()
        assert fingerprint(params) == fingerprint(reordered) == (
            hashlib.sha256(blob).hexdigest()[:16]
        )
        assert fingerprint(params) != fingerprint({**params, "b": 3})

    def test_committed_history_fingerprints_recompute(self):
        records = [
            json.loads(line) for line in HISTORY.read_text().splitlines()
        ]
        assert len(records) >= 57
        for record in records:
            assert record["provenance"]["config_fingerprint"] == (
                fingerprint(record["params"])
            ), record["benchmark"]
