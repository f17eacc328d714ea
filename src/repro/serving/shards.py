"""Mmap-sharded embedding snapshots: on-disk layout + publishing.

A *snapshot* is one immutable, versioned export of an entity type's
embedding table, laid out for zero-copy serving:

```
{root}/
  CURRENT            # text pointer: "v-000003\n"
  v-000003/
    manifest.json    # version, entity_type, dim, count, comparator,
                     # shards: [{part, rows, file}], source metadata
    layout.bin       # arrays part, offset: global id -> (shard, row)
    shard-00000.bin  # array embeddings: float32 (rows, dim), one
                     # per partition
```

The shard unit is the training-time partition: ``export --format
mmap`` decodes each stored partition of
:class:`~repro.graph.storage.PartitionedEmbeddingStorage` into a shard.
Every file but the manifest is an array file in the trainer's format
(:func:`~repro.graph.storage.write_arrays`), so opening a version
checks every CRC: a damaged version raises :class:`ServingError` naming
the file and is never served. The shards are then mapped read-only
(``read_arrays(mmap=True)``): pages fault in on demand, and several
server processes share one page cache copy.

Publishing is crash-safe and reader-atomic: a version is staged in a
hidden temp dir, renamed into place (atomic within a filesystem), and
only then does ``CURRENT`` get rewritten (``atomic_write``: a temp
file renamed over it). Readers resolve ``CURRENT`` once and then only
touch immutable version dirs, so a concurrent publish can never hand
them a mixed view; swapping live queries onto the new version is the
job of :class:`~repro.serving.snapshot.SnapshotManager`.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from repro.graph.storage import (
    CheckpointStorage,
    StorageError,
    atomic_write,
    read_arrays,
    write_arrays,
)
from repro.serving.index import ServingError

__all__ = [
    "MmapShardedTable",
    "current_version",
    "list_versions",
    "publish_checkpoint",
    "publish_embeddings",
]

MANIFEST_NAME = "manifest.json"
CURRENT_NAME = "CURRENT"
LAYOUT_NAME = "layout.bin"
_F32, _I64 = np.dtype(np.float32).str, np.dtype(np.int64).str


def _version_dirname(version: int) -> str:
    return f"v-{version:06d}"


def list_versions(root: "str | Path") -> "list[int]":
    """Sorted published snapshot versions under ``root``."""
    root = Path(root)
    if not root.exists():
        return []
    versions = []
    for p in root.glob("v-*"):
        if not p.is_dir() or not (p / MANIFEST_NAME).exists():
            continue
        try:
            versions.append(int(p.name.split("-", 1)[1]))
        except (IndexError, ValueError):
            continue
    return sorted(versions)


def current_version(root: "str | Path") -> "int | None":
    """Version named by ``CURRENT``, or ``None`` if nothing published."""
    path = Path(root) / CURRENT_NAME
    if not path.exists():
        return None
    name = path.read_text().strip()
    try:
        return int(name.split("-", 1)[1])
    except (IndexError, ValueError) as exc:
        raise ServingError(
            f"corrupt CURRENT pointer at {path}: {name!r}"
        ) from exc


def _set_current(root: Path, version: int) -> None:
    text = _version_dirname(version) + "\n"
    atomic_write(root / CURRENT_NAME, lambda fh: fh.write(text.encode()))


def _publish(
    root: "str | Path",
    write_shards,
    part: np.ndarray,
    offset: np.ndarray,
    entity_type: str,
    comparator: str,
    source: "dict | None",
) -> int:
    """Stage one new version, rename it into place, then flip ``CURRENT``.

    ``write_shards(staging) -> (shards, dim)`` writes the shard files
    and returns their manifest entries ``[{part, rows, file}]``;
    ``part`` and ``offset`` map each global id to a shard row. Returns
    the new version number.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    versions = list_versions(root)
    version = (versions[-1] + 1) if versions else 1
    staging = Path(tempfile.mkdtemp(
        dir=root, prefix=f".tmp-{_version_dirname(version)}-"
    ))
    try:
        shards, dim = write_shards(staging)
        atomic_write(staging / LAYOUT_NAME, write_arrays, {
            "part": part.astype(np.int64), "offset": offset.astype(np.int64),
        })
        manifest = {
            "version": version, "entity_type": entity_type,
            "comparator": comparator, "dim": dim, "count": len(part),
            "shards": shards, "source": source or {},
        }
        (staging / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
    except BaseException:
        shutil.rmtree(staging)
        raise
    os.rename(staging, root / _version_dirname(version))
    _set_current(root, version)
    return version


def publish_embeddings(
    root: "str | Path",
    embeddings: np.ndarray,
    entity_type: str = "node",
    comparator: str = "cos",
    source: "dict | None" = None,
) -> int:
    """Publish an in-memory ``(n, d)`` matrix as a one-shard snapshot.

    The convenience path for tests, benchmarks and small exports; the
    identity layout (everything in shard 0, offset = id) is written
    explicitly so readers never special-case it. Returns the new
    version number.
    """
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2:
        raise ValueError(
            f"embeddings must be (n, d), got {embeddings.shape}"
        )
    n, d = embeddings.shape

    def write_shard(staging: Path) -> "tuple[list[dict], int]":
        name = "shard-00000.bin"
        atomic_write(staging / name, write_arrays, {
            "embeddings": embeddings.astype(np.float32, copy=False),
        })
        return [{"part": 0, "rows": n, "file": name}], d

    return _publish(
        root, write_shard, np.zeros(n, dtype=np.int64), np.arange(n),
        entity_type, comparator, source,
    )


def publish_checkpoint(
    root: "str | Path",
    checkpoint_dir: "str | Path",
    entity_type: str,
) -> int:
    """Publish a training checkpoint's partitions as mmap shards.

    Each stored partition file becomes one ``shard-*.bin`` (codec
    decoded, optimizer state dropped — serving only needs values), and
    the checkpoint's partition layout arrays become the id mapping.
    The comparator is taken from the training config so "nearest"
    means what the model optimised. Returns the new version number.
    """
    from repro.core.checkpointing import load_manifest

    config, metadata = load_manifest(checkpoint_dir)
    if entity_type not in config.entities:
        raise ServingError(
            f"entity type {entity_type!r} not in checkpoint config "
            f"(has: {sorted(config.entities)})"
        )
    ckpt = CheckpointStorage(checkpoint_dir)
    parts = ckpt.partitions.stored_partitions(entity_type)
    if not parts:
        raise ServingError(
            f"checkpoint at {checkpoint_dir} has no stored partitions "
            f"for {entity_type!r} (featurized types cannot be exported)"
        )
    shared = ckpt.load_shared()
    part_key = f"layout_{entity_type}_part"
    offset_key = f"layout_{entity_type}_offset"
    if part_key not in shared or offset_key not in shared:
        raise ServingError(
            f"checkpoint at {checkpoint_dir} lacks layout arrays for "
            f"{entity_type!r}"
        )
    required = {int(p) for p in np.unique(shared[part_key])}
    if not required.issubset(parts):
        raise ServingError(
            f"checkpoint at {checkpoint_dir} is missing partition(s) "
            f"{sorted(required - set(parts))} of {entity_type!r}"
        )
    return _publish(
        root, partial(ckpt.partitions.export_mmap, entity_type),
        shared[part_key], shared[offset_key], entity_type,
        config.comparator,
        {"checkpoint": str(checkpoint_dir), "epoch": metadata.get("epoch")},
    )


class MmapShardedTable:
    """Read-only view of one published snapshot, shards mmap-backed.

    Immutable once opened (the version dir never changes after
    publish). Opening checks every CRC; any failure to open raises
    :class:`ServingError` naming the version dir and the file. Global
    entity ids are resolved through the layout arrays:
    ``id -> (part[id], offset[id])``.
    """

    def __init__(self, version_dir: "str | Path") -> None:
        self.version_dir = Path(version_dir)
        mpath = self.version_dir / MANIFEST_NAME
        if not mpath.exists():
            raise ServingError(f"no snapshot manifest at {mpath}")
        try:
            self.manifest = json.loads(mpath.read_text())
            self.version = int(self.manifest["version"])
            self.entity_type = self.manifest["entity_type"]
            self.comparator = self.manifest["comparator"]
            self.dim = int(self.manifest["dim"])
            self.num_items = int(self.manifest["count"])
            entries = [
                (int(e["part"]), str(e["file"]), (int(e["rows"]), self.dim))
                for e in self.manifest["shards"]
            ]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ServingError(
                f"bad snapshot manifest {mpath}: {exc!r}"
            ) from exc
        self._shards: "dict[int, np.ndarray]" = {}
        for part, name, shape in entries:
            self._shards[part] = self._read(
                name, {"embeddings": (_F32, shape)}, mmap=True
            )["embeddings"]
        # Eager: 16 bytes per id, indexed by every gather.
        layout = self._read(LAYOUT_NAME, dict.fromkeys(
            ("part", "offset"), (_I64, (self.num_items,))
        ))
        self._part_of, self._offset_of = layout["part"], layout["offset"]
        missing = sorted(
            set(np.unique(self._part_of).tolist()) - set(self._shards)
        )
        if missing:
            raise ServingError(
                f"snapshot at {self.version_dir} has no shard for "
                f"partition(s) {missing} referenced by its layout"
            )
        self._identity_layout = len(self._shards) == 1 and bool(
            np.array_equal(self._offset_of, np.arange(self.num_items))
        )
        self._closed = False

    def _read(self, name: str, want: dict, mmap: bool = False) -> dict:
        """The CRC-checked arrays of one file of this version, which
        must match ``want`` (``{array: (dtype, shape)}``)."""
        path = self.version_dir / name
        try:
            arrays = read_arrays(path, mmap=mmap)
        except (StorageError, OSError) as exc:
            raise ServingError(
                f"cannot open snapshot file {path}: {exc}"
            ) from exc
        got = {key: (a.dtype.str, a.shape) for key, a in arrays.items()}
        if got != want:
            raise ServingError(
                f"snapshot file {path} holds {got}, which does not "
                f"match manifest: {want}"
            )
        return arrays

    @classmethod
    def open(cls, root: "str | Path") -> "MmapShardedTable":
        """Open the version named by ``{root}/CURRENT``."""
        version = current_version(root)
        if version is None:
            raise ServingError(f"no published snapshot under {root}")
        return cls(Path(root) / _version_dirname(version))

    def _check_open(self) -> None:
        if self._closed:
            raise ServingError(
                f"snapshot v{self.version} is closed (retired by a swap)"
            )

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Rows for global ids, copied out of the mapped shards."""
        self._check_open()
        ids = np.asarray(ids)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.num_items):
            raise ValueError(f"ids must be in [0, {self.num_items})")
        if self._identity_layout:
            return np.asarray(self._shards[0][ids])
        parts = self._part_of[ids]
        offsets = self._offset_of[ids]
        out = np.empty((len(ids), self.dim), dtype=np.float32)
        for part in np.unique(parts):
            mask = parts == part
            out[mask] = self._shards[int(part)][offsets[mask]]
        return out

    def as_array(self) -> np.ndarray:
        """The full table in global id order.

        With the identity layout this is the mapped shard itself (no
        copy — a downstream exact dot-product scan streams chunks off
        the page cache); otherwise rows are stitched into memory.
        """
        self._check_open()
        if self._identity_layout:
            return self._shards[0]
        out = np.empty((self.num_items, self.dim), dtype=np.float32)
        for part, shard in self._shards.items():
            members = np.flatnonzero(self._part_of == part)
            out[members] = np.asarray(shard)[self._offset_of[members]]
        return out

    def nbytes_on_disk(self) -> int:
        return sum((self.version_dir / e["file"]).stat().st_size
                   for e in self.manifest["shards"])

    def close(self) -> None:
        """Release the mappings (idempotent).

        After close, ``gather``/``as_array`` raise — the
        :class:`~repro.serving.snapshot.SnapshotManager` only closes a
        version once its reader refcount drains to zero.
        """
        if self._closed:
            return
        self._closed = True
        for arr in self._shards.values():
            mm = getattr(arr, "_mmap", None)
            if mm is not None:  # an empty shard maps nothing
                mm.close()
        self._shards = {}
        self._part_of = self._offset_of = None
