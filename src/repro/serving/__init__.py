"""Embedding serving: mmap-sharded tables + k-NN indexes + hot swap.

The train→serve loop in four pieces:

- :mod:`repro.serving.index` — the :class:`KnnIndex` protocol and the
  exact chunked scan (:class:`ExactIndex`);
- :mod:`repro.serving.ivfpq` — the approximate IVF index
  (:class:`IVFPQIndex`, float lists) with the ``nprobe``
  recall/latency knob;
- :mod:`repro.serving.shards` — versioned mmap snapshot layout,
  publishing from checkpoints, :class:`MmapShardedTable`;
- :mod:`repro.serving.snapshot` / :mod:`repro.serving.server` —
  refcounted atomic snapshot swap and the batched query front end.

See SERVING.md for the operational story.
"""

from repro.serving.index import ExactIndex, KnnIndex, ServingError
from repro.serving.ivfpq import IVFPQIndex, kmeans
from repro.serving.server import QueryService, ServingStats, make_index
from repro.serving.shards import (
    MmapShardedTable,
    current_version,
    list_versions,
    publish_checkpoint,
    publish_embeddings,
)
from repro.serving.snapshot import SnapshotManager

__all__ = [
    "ExactIndex",
    "IVFPQIndex",
    "KnnIndex",
    "MmapShardedTable",
    "QueryService",
    "ServingError",
    "ServingStats",
    "SnapshotManager",
    "current_version",
    "kmeans",
    "list_versions",
    "make_index",
    "publish_checkpoint",
    "publish_embeddings",
]
