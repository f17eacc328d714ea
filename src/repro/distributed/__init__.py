"""Simulated distributed execution (paper Section 4.2, Figure 2).

PBG's distributed mode combines three services:

- a **lock server** (:mod:`~repro.distributed.lock_server`) that parcels
  out edge buckets to machines such that concurrently-trained buckets
  touch disjoint partitions, preferring buckets that reuse a machine's
  resident partitions, and maintaining the initialisation invariant;
- a **partition server** (:mod:`~repro.distributed.partition_server`)
  sharded across machines, holding the partitioned embeddings that are
  not currently being trained;
- a **parameter server** (:mod:`~repro.distributed.parameter_server`)
  for the small set of shared parameters (relation operators,
  unpartitioned entity types), synchronised asynchronously by a
  background thread per trainer.

:mod:`~repro.distributed.cluster` wires these into a multi-machine
trainer where each "machine" is a thread or a process with private
parameter copies, so staleness, locking and occupancy effects are
faithfully exercised; partitions cross between them encoded.

Each machine drives the single-machine trainer's bucket loop
(:class:`~repro.core.trainer.BucketExecutor`) over the same
:class:`~repro.graph.storage.PartitionPipeline`, backed by the
partition server instead of disk; ``config.pipeline`` selects whether
that pipeline works inline or with prefetch / staging cache /
asynchronous writeback threads, in which case the lock server's
two-phase ``reserve``/``acquire`` protocol predicts each machine's next
bucket so its partitions transfer during compute. In both modes
deferred releases keep a partition invisible to other machines until
its push-back lands, and the pipelining invariants govern this network
path too: *flush-before-reuse* (no machine — local via ``take``, or
remote via the lock server's deferral — may consume a partition whose
latest write is still in flight) and the *drain barrier* (every
push-back lands before the coordinator assembles a model or
checkpoints).
"""

from repro.distributed.lock_server import LockServer, LockServerStats
from repro.distributed.parameter_server import ParameterServer
from repro.distributed.partition_server import (
    PartitionServer,
    PartitionServerStorage,
)
from repro.distributed.cluster import (
    DistributedStats,
    DistributedTrainer,
    MachineStats,
)

__all__ = [
    "LockServer",
    "LockServerStats",
    "ParameterServer",
    "PartitionServer",
    "PartitionServerStorage",
    "DistributedStats",
    "DistributedTrainer",
    "MachineStats",
]
