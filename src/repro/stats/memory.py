"""Analytic memory model for partitioned training.

The paper's memory columns (Tables 1, 3, 4) report peak resident set
size, which for an embedding system is dominated by which parameter
blocks are resident: with ``P`` partitions a single-machine trainer
holds at most two partitions (~``2/P`` of the model) plus optimizer
state plus shared parameters; a distributed machine additionally hosts
``1/M`` of the partition-server shards. This module computes those
quantities exactly from a config + entity counts, so benchmarks can
report the memory column deterministically (we also expose a
tracemalloc-based measurement for cross-checking — the simulation's
true allocations track the model closely).
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass

from repro.config import ConfigSchema
from repro.core.operators import make_operator
from repro.graph.entity_storage import EntityStorage

__all__ = ["MemoryModel", "measure_peak_tracemalloc"]

_FLOAT_BYTES = 4  # float32 embeddings
_ROW_STATE_BYTES = 4  # one Adagrad float per row


@dataclass
class MemoryModel:
    """Derives byte counts for a (config, entity counts) pair."""

    config: ConfigSchema
    entities: EntityStorage

    # ------------------------------------------------------------------

    def embedding_row_bytes(self) -> int:
        """Bytes per embedding row including row-Adagrad state."""
        return self.config.dimension * _FLOAT_BYTES + _ROW_STATE_BYTES

    def total_model_bytes(self) -> int:
        """Full model: every entity row + shared parameters."""
        total = sum(
            self.entities.count(t) * self.embedding_row_bytes()
            for t in self._dense_types()
        )
        return total + self.shared_param_bytes()

    def _dense_types(self) -> "list[str]":
        """Configured types with embedding rows (featurized ones have none)."""
        return [
            t for t in self.entities.types
            if t in self.config.entities and not self.config.entities[t].featurized
        ]

    def shared_param_bytes(self) -> int:
        """Relation-operator parameters (+ dense Adagrad state), each
        relation's sized by its operator's ``param_shape``."""
        d = self.config.dimension
        return sum(
            2 * math.prod(make_operator(rel.operator, d).param_shape()) * _FLOAT_BYTES
            for rel in self.config.relations
        )

    def partition_bytes(self, entity_type: str, part: int) -> int:
        """One partition's embeddings + optimizer state."""
        return self.entities.part_size(entity_type, part) * (
            self.embedding_row_bytes()
        )

    def _max_partition_bytes(self, entity_type: str) -> int:
        return max(
            self.partition_bytes(entity_type, p)
            for p in range(self.entities.num_partitions(entity_type))
        )

    # ------------------------------------------------------------------

    def single_machine_peak_bytes(self) -> int:
        """Peak resident bytes for single-machine *serial* training.

        Unpartitioned types are always resident; each partitioned type
        contributes at most two partitions (the current bucket's lhs
        and rhs).
        """
        return self._peak_bytes(hosted_parts=lambda nparts: 0)

    def _peak_bytes(self, hosted_parts) -> int:
        """Shared parameters, every unpartitioned type whole, and per
        partitioned type two live partitions plus ``hosted_parts(P)``."""
        total = self.shared_param_bytes()
        for t in self._dense_types():
            nparts = self.entities.num_partitions(t)
            if nparts == 1:
                total += self.entities.count(t) * self.embedding_row_bytes()
            else:
                total += (2 + hosted_parts(nparts)) * self._max_partition_bytes(t)
        return total

    def distributed_peak_bytes_per_machine(self) -> int:
        """Peak per machine: two live partitions + hosted shard.

        The partition server shards all ``P`` partitions across ``M``
        machines, so each hosts ``ceil(P/M)`` partitions' bytes in
        addition to its two live ones (matching the paper's observation
        that 2-machine memory *exceeds* 1-machine-partitioned memory
        because the model moves from disk to cluster RAM).
        """
        m = self.config.num_machines
        return self._peak_bytes(hosted_parts=lambda nparts: -(-nparts // m))  # ceil


def measure_peak_tracemalloc(fn, *args, **kwargs):
    """Run ``fn`` under tracemalloc; returns (result, peak_bytes).

    Slower than normal execution; used by tests to sanity-check the
    analytic model, not by benchmarks.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
