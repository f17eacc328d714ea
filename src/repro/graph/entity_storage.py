"""Entity bookkeeping: counts and partition assignments per entity type.

Each entity type in the graph has a contiguous id space ``[0, count)``.
Partitioned types additionally carry a partition assignment for every
entity plus the permutation that maps global ids to (partition, offset)
pairs — the coordinate system used by partitioned training (paper
Section 4.1).
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass

import numpy as np

__all__ = ["EntityStorage", "TypePartitioning"]


@dataclass(frozen=True)
class TypePartitioning:
    """Partition layout of one entity type.

    Attributes
    ----------
    part_of:
        ``part_of[i]`` is the partition of global entity ``i``.
    offset_of:
        ``offset_of[i]`` is the row of entity ``i`` inside its
        partition's embedding matrix.
    part_sizes:
        Number of entities per partition.
    global_of:
        ``global_of[p][j]`` is the global id of row ``j`` of partition
        ``p`` (inverse of the ``(part_of, offset_of)`` map).
    """

    part_of: np.ndarray
    offset_of: np.ndarray
    part_sizes: np.ndarray
    global_of: tuple[np.ndarray, ...]

    @classmethod
    def from_permutation(
        cls, perm: np.ndarray, part_sizes: np.ndarray
    ) -> "TypePartitioning":
        """The one constructor of a layout: partition ``p`` holds
        ``perm``'s next ``part_sizes[p]`` global ids, in row order.
        Whole-array passes only (a repeat, two scatters and a split)."""
        count, nparts = len(perm), len(part_sizes)
        bounds = np.concatenate([[0], np.cumsum(part_sizes)])
        part_of = np.empty(count, dtype=np.int64)
        offset_of = np.empty(count, dtype=np.int64)
        part_of[perm] = np.repeat(np.arange(nparts, dtype=np.int64), part_sizes)
        offset_of[perm] = np.arange(count, dtype=np.int64) - np.repeat(bounds[:-1], part_sizes)
        return cls(part_of, offset_of, part_sizes, tuple(np.split(perm, bounds[1:-1])))

    @property
    def num_partitions(self) -> int:
        return len(self.part_sizes)

    def to_local(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map global ids to (partition, offset) arrays."""
        return self.part_of[ids], self.offset_of[ids]

    def to_global(self, part: int, offsets: np.ndarray) -> np.ndarray:
        """Map partition-local offsets back to global ids."""
        return self.global_of[part][offsets]


class EntityStorage:
    """Counts and partitionings for all entity types of a graph.

    Parameters
    ----------
    counts:
        Mapping from entity-type name to number of entities.
    """

    def __init__(self, counts: "dict[str, int]") -> None:
        if not counts:
            raise ValueError("at least one entity type is required")
        for name, count in counts.items():
            if count < 1:
                raise ValueError(
                    f"entity type {name!r} must have >= 1 entities, got {count}"
                )
        self._counts = dict(counts)
        self._partitionings: dict[str, TypePartitioning] = {}

    # ------------------------------------------------------------------

    @property
    def types(self) -> "list[str]":
        return list(self._counts)

    def count(self, entity_type: str) -> int:
        """Number of entities of ``entity_type``."""
        return self._counts[entity_type]

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def set_partitioning(
        self, entity_type: str, partitioning: TypePartitioning
    ) -> None:
        """Attach a partition layout (see :func:`partition_entities`)."""
        if entity_type not in self._counts:
            raise KeyError(f"unknown entity type {entity_type!r}")
        if len(partitioning.part_of) != self._counts[entity_type]:
            raise ValueError(
                f"partitioning covers {len(partitioning.part_of)} entities "
                f"but type {entity_type!r} has {self._counts[entity_type]}"
            )
        self._partitionings[entity_type] = partitioning

    def partitioning(self, entity_type: str) -> TypePartitioning:
        """The partition layout of ``entity_type`` (identity if unset)."""
        if entity_type not in self._partitionings:
            count = self._counts[entity_type]
            self._partitionings[entity_type] = TypePartitioning.from_permutation(
                np.arange(count, dtype=np.int64), np.asarray([count], dtype=np.int64)
            )
        return self._partitionings[entity_type]

    def num_partitions(self, entity_type: str) -> int:
        return self.partitioning(entity_type).num_partitions

    def unpartitioned_types(self, configured: "Container[str]") -> "list[str]":
        """The types of ``configured`` (a config's ``entities``) that
        have one partition, in storage order: always resident, and in
        distributed training shared through the parameter server."""
        return [t for t in self.types if t in configured and self.num_partitions(t) == 1]

    def part_size(self, entity_type: str, part: int) -> int:
        return int(self.partitioning(entity_type).part_sizes[part])

