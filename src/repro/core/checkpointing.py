"""Whole-model checkpointing: save/load a trainable model to disk.

PBG trainers write checkpoints to the shared filesystem so that
training can resume after interruption and so that downstream users can
load embeddings without the training pipeline (Figure 2 shows the
checkpoint path in distributed mode). This module packages the pieces
of :class:`~repro.graph.storage.CheckpointStorage` into one-call
``save_model`` / ``load_model`` operations covering:

- the config (JSON),
- every dense partition's embeddings + row-Adagrad state,
- shared parameters (relation operators + their optimizer state,
  featurized feature tables),
- the entity counts and partition layouts (so ids keep their meaning).

Featurized incidence matrices are *data*, not parameters, and are not
checkpointed; reattach the table via ``FeaturizedEmbeddingTable`` with
the checkpointed ``features_{type}`` weights when loading.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.config import ConfigSchema
from repro.core.model import EmbeddingModel
from repro.core.tables import DenseEmbeddingTable, FeaturizedEmbeddingTable
from repro import telemetry
from repro.graph.entity_storage import EntityStorage, TypePartitioning
from repro.graph.storage import CheckpointStorage, StorageError

__all__ = ["save_model", "load_model", "load_manifest"]


def save_model(
    checkpoint_dir: "str | Path",
    model: EmbeddingModel,
    entities: EntityStorage,
    metadata: dict | None = None,
    codec: str = "none",
) -> CheckpointStorage:
    """Persist config, parameters and layouts; returns the storage.

    A trainer checkpoints only after its epoch-end flush has drained
    every write-back (:meth:`~repro.core.trainer.BucketExecutor.flush`),
    so the evicted partitions in the store and the resident ones
    written here belong to the same model.

    ``codec`` compresses the checkpoint's embedding partitions on disk
    (shared parameters stay fp32); partition files are self-describing,
    so :func:`load_model` reads any codec without being told.
    """
    with telemetry.span("checkpoint.save", cat="checkpoint"):
        return _save_model_files(
            checkpoint_dir, model, entities, metadata, codec
        )


def _save_model_files(
    checkpoint_dir, model, entities, metadata, codec
) -> CheckpointStorage:
    ckpt = CheckpointStorage(checkpoint_dir, codec=codec)
    ckpt.save_config(model.config.to_json())

    shared = model.get_shared_params()
    shared.update(model.get_shared_state())
    layout_meta: dict = {"counts": {}, "partitions": {}}
    for entity_type in entities.types:
        if entity_type not in model.config.entities:
            continue
        partitioning = entities.partitioning(entity_type)
        layout_meta["counts"][entity_type] = entities.count(entity_type)
        layout_meta["partitions"][entity_type] = partitioning.num_partitions
        # Both arrays are needed: part_of alone cannot reconstruct the
        # row order of the saved embedding matrices.
        shared[f"layout_{entity_type}_part"] = partitioning.part_of
        shared[f"layout_{entity_type}_offset"] = partitioning.offset_of

    for entity_type, part in model.resident_tables():
        table = model.get_table(entity_type, part)
        if isinstance(table, FeaturizedEmbeddingTable):
            shared[f"features_{entity_type}"] = table.feature_weights
            shared[f"features_{entity_type}_state"] = table.optimizer.state
            continue
        ckpt.partitions.save(
            entity_type, part, table.weights, table.optimizer.state
        )
    ckpt.save_shared(shared)
    meta = dict(metadata or {})
    meta.update(layout_meta)
    ckpt.save_metadata(meta)
    return ckpt


def _rebuild_partitioning(
    part_of: np.ndarray, offset_of: np.ndarray
) -> TypePartitioning:
    """Rebuild a TypePartitioning from stored (part, offset) arrays:
    one scatter recovers the permutation the layout was built from."""
    part_of = part_of.astype(np.int64)
    num_partitions = int(part_of.max()) + 1 if len(part_of) else 1
    part_sizes = np.bincount(part_of, minlength=num_partitions).astype(np.int64)
    bounds = np.concatenate([[0], np.cumsum(part_sizes)])
    perm = np.empty(len(part_of), dtype=np.int64)
    perm[bounds[part_of] + offset_of] = np.arange(len(part_of), dtype=np.int64)
    return TypePartitioning.from_permutation(perm, part_sizes)


def load_manifest(
    checkpoint_dir: "str | Path",
) -> tuple[ConfigSchema, dict]:
    """Load a checkpoint's config + metadata without its arrays.

    The serving exporter and snapshot publisher need the training
    config (comparator, dimension) and the entity counts, but not the
    embedding matrices — those are streamed partition by partition.
    """
    ckpt = CheckpointStorage(checkpoint_dir)
    return _load_config(ckpt), ckpt.load_metadata()


def _load_config(ckpt: CheckpointStorage) -> ConfigSchema:
    """The checkpoint's config; JSON damage raises ``StorageError``
    naming the file, a parsed but invalid config ``ConfigError``."""
    try:
        return ConfigSchema.from_json(ckpt.load_config())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(f"corrupt config at {ckpt.root / 'config.json'}: {exc}") from exc


def load_model(
    checkpoint_dir: "str | Path",
) -> tuple[ConfigSchema, EntityStorage, EmbeddingModel, dict]:
    """Load a checkpoint; returns (config, entities, model, metadata).

    Dense partitions are materialised; featurized types need their
    incidence reattached by the caller (their feature weights are in
    the returned model's shared parameters under ``features_{type}``).
    """
    ckpt = CheckpointStorage(checkpoint_dir)
    config = _load_config(ckpt)
    metadata = ckpt.load_metadata()
    shared = ckpt.load_shared()

    entities = EntityStorage(
        {k: int(v) for k, v in metadata["counts"].items()}
    )
    for entity_type in metadata["counts"]:
        part_key = f"layout_{entity_type}_part"
        offset_key = f"layout_{entity_type}_offset"
        if part_key in shared and offset_key in shared:
            entities.set_partitioning(
                entity_type,
                _rebuild_partitioning(shared[part_key], shared[offset_key]),
            )

    model = EmbeddingModel(config, entities)
    model.set_shared_params(shared)
    model.set_shared_state(shared)
    for entity_type in entities.types:
        if entity_type not in config.entities:
            continue
        if config.entities[entity_type].featurized:
            continue  # caller reattaches with the stored feature weights
        for part in ckpt.partitions.stored_partitions(entity_type):
            emb, state = ckpt.partitions.load(entity_type, part)
            model.set_table(
                entity_type, part, DenseEmbeddingTable(emb, state)
            )
    return config, entities, model, metadata
