"""Mmap-sharded embedding snapshots: on-disk layout + publishing.

A *snapshot* is one immutable, versioned export of an entity type's
embedding table, laid out for zero-copy serving:

```
{root}/
  CURRENT                # text pointer: "v-000003\n"
  v-000003/
    manifest.json        # version, entity_type, dim, count, comparator,
                         # shards: [{part, rows, file}], source metadata
    layout_part.npy      # global id -> shard (partition) index
    layout_offset.npy    # global id -> row within its shard
    shard-00000.npy      # raw float32 (rows, dim), one per partition
```

The shard unit is the training-time partition: ``export --format
mmap`` decodes each stored partition of
:class:`~repro.graph.storage.PartitionedEmbeddingStorage` into a raw
``.npy`` the server opens with ``np.load(mmap_mode="r")`` — pages
fault in on demand, several server processes share one page cache
copy, and a shard never loads at all unless queries touch it.

Publishing is crash-safe and reader-atomic: a version is staged in a
hidden temp dir, renamed into place (atomic within a filesystem), and
only then does ``CURRENT`` get rewritten via the tmp-file +
``os.replace`` trick. Readers resolve ``CURRENT`` once and then only
touch immutable version dirs, so a concurrent publish can never hand
them a mixed view; swapping live queries onto the new version is the
job of :class:`~repro.serving.snapshot.SnapshotManager`.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.graph.storage import CheckpointStorage, atomic_write
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
    tmp = root / f".{CURRENT_NAME}.tmp"
    tmp.write_text(_version_dirname(version) + "\n")
    os.replace(tmp, root / CURRENT_NAME)


def _write_manifest(
    vdir: Path,
    version: int,
    entity_type: str,
    comparator: str,
    shards: "list[dict]",
    dim: int,
    count: int,
    source: "dict | None",
) -> None:
    manifest = {
        "version": version,
        "entity_type": entity_type,
        "comparator": comparator,
        "dim": dim,
        "count": count,
        "shards": shards,
        "source": source or {},
    }
    (vdir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )


class _Publisher:
    """Stage-then-rename publisher for one new snapshot version."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        versions = list_versions(self.root)
        self.version = (versions[-1] + 1) if versions else 1
        self.staging = Path(
            tempfile.mkdtemp(
                dir=self.root, prefix=f".tmp-{_version_dirname(self.version)}-"
            )
        )

    def commit(self) -> int:
        final = self.root / _version_dirname(self.version)
        os.rename(self.staging, final)
        _set_current(self.root, self.version)
        return self.version

    def abort(self) -> None:
        for p in self.staging.glob("*"):
            p.unlink()
        self.staging.rmdir()


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
    pub = _Publisher(root)
    try:
        atomic_write(
            pub.staging / "shard-00000.npy", np.save,
            np.ascontiguousarray(embeddings, dtype=np.float32),
        )
        atomic_write(
            pub.staging / "layout_part.npy", np.save,
            np.zeros(n, dtype=np.int64),
        )
        atomic_write(
            pub.staging / "layout_offset.npy", np.save,
            np.arange(n, dtype=np.int64),
        )
        _write_manifest(
            pub.staging, pub.version, entity_type, comparator,
            [{"part": 0, "rows": n, "file": "shard-00000.npy"}],
            d, n, source,
        )
    except BaseException:
        pub.abort()
        raise
    return pub.commit()


def publish_checkpoint(
    root: "str | Path",
    checkpoint_dir: "str | Path",
    entity_type: str,
) -> int:
    """Publish a training checkpoint's partitions as mmap shards.

    Each stored partition file becomes one raw ``shard-*.npy`` (codec
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
    required = {int(p) for p in np.unique(np.asarray(shared[part_key]))}
    if not required.issubset(parts):
        raise ServingError(
            f"checkpoint at {checkpoint_dir} is missing partition(s) "
            f"{sorted(required - set(parts))} of {entity_type!r}"
        )
    pub = _Publisher(root)
    try:
        shards, dim = ckpt.partitions.export_mmap(entity_type, pub.staging)
        atomic_write(
            pub.staging / "layout_part.npy", np.save,
            shared[part_key].astype(np.int64),
        )
        atomic_write(
            pub.staging / "layout_offset.npy", np.save,
            shared[offset_key].astype(np.int64),
        )
        count = int(metadata["counts"][entity_type])
        _write_manifest(
            pub.staging, pub.version, entity_type, config.comparator,
            shards, dim, count,
            {
                "checkpoint": str(checkpoint_dir),
                "epoch": metadata.get("epoch"),
            },
        )
    except BaseException:
        pub.abort()
        raise
    return pub.commit()


class MmapShardedTable:
    """Read-only view of one published snapshot, shards mmap-backed.

    Immutable once opened (the version dir never changes after
    publish). Global entity ids are resolved through the layout
    arrays: ``id -> (layout_part[id], layout_offset[id])``.
    """

    def __init__(self, version_dir: "str | Path") -> None:
        self.version_dir = Path(version_dir)
        mpath = self.version_dir / MANIFEST_NAME
        if not mpath.exists():
            raise ServingError(f"no snapshot manifest at {mpath}")
        self.manifest = json.loads(mpath.read_text())
        self.version = int(self.manifest["version"])
        self.entity_type = self.manifest["entity_type"]
        self.comparator = self.manifest["comparator"]
        self.dim = int(self.manifest["dim"])
        self.num_items = int(self.manifest["count"])
        self._shards: "dict[int, np.ndarray]" = {}
        for entry in self.manifest["shards"]:
            arr = np.load(
                self.version_dir / entry["file"], mmap_mode="r"
            )
            if arr.shape != (entry["rows"], self.dim):
                raise ServingError(
                    f"shard {entry['file']} shape {arr.shape} does not "
                    f"match manifest ({entry['rows']}, {self.dim})"
                )
            self._shards[int(entry["part"])] = arr
        self._part_of = np.load(
            self.version_dir / "layout_part.npy", mmap_mode="r"
        )
        self._offset_of = np.load(
            self.version_dir / "layout_offset.npy", mmap_mode="r"
        )
        if len(self._part_of) != self.num_items:
            raise ServingError(
                f"layout covers {len(self._part_of)} ids, manifest "
                f"says {self.num_items}"
            )
        missing = sorted(
            int(p)
            for p in np.unique(np.asarray(self._part_of))
            if int(p) not in self._shards
        )
        if missing:
            raise ServingError(
                f"snapshot at {self.version_dir} has no shard for "
                f"partition(s) {missing} referenced by its layout"
            )
        self._identity_layout = len(self._shards) == 1 and bool(
            np.array_equal(
                self._offset_of, np.arange(self.num_items)
            )
        )
        self._closed = False

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
            raise ValueError(
                f"ids must be in [0, {self.num_items})"
            )
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
        part_of = np.asarray(self._part_of)
        offset_of = np.asarray(self._offset_of)
        for part, shard in self._shards.items():
            members = np.flatnonzero(part_of == part)
            out[members] = np.asarray(shard)[offset_of[members]]
        return out

    def nbytes_on_disk(self) -> int:
        total = 0
        for entry in self.manifest["shards"]:
            total += (self.version_dir / entry["file"]).stat().st_size
        return total

    def close(self) -> None:
        """Release the mappings (idempotent).

        After close, ``gather``/``as_array`` raise — the
        :class:`~repro.serving.snapshot.SnapshotManager` only closes a
        version once its reader refcount drains to zero.
        """
        if self._closed:
            return
        self._closed = True
        for arr in list(self._shards.values()):
            mm = getattr(arr, "_mmap", None)
            if mm is not None:
                mm.close()
        self._shards = {}
        for name in ("_part_of", "_offset_of"):
            arr = getattr(self, name)
            mm = getattr(arr, "_mmap", None)
            if mm is not None:
                mm.close()
            setattr(self, name, None)
