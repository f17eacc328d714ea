"""Configuration schema for PBG training runs.

This mirrors the configuration surface described in the paper (Sections 3
and 4): multi-entity / multi-relation graphs, per-relation operator
choice and edge weight, partition counts per entity type, negative
sampling mix, loss selection, and the knobs of the partitioned /
distributed training loop.

A configuration is a plain, validating, serialisable object tree::

    config = ConfigSchema(
        entities={"user": EntitySchema(num_partitions=4)},
        relations=[RelationSchema(name="follow", lhs="user", rhs="user",
                                  operator="translation")],
        dimension=100,
    )

Everything downstream (trainers, evaluators, benchmarks) consumes this
schema rather than loose keyword arguments, so that a run is fully
described by one object that can be checkpointed alongside the model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

__all__ = [
    "EntitySchema",
    "RelationSchema",
    "ServingConfig",
    "ConfigSchema",
    "fingerprint",
    "OPERATOR_NAMES",
    "COMPARATOR_NAMES",
    "LOSS_NAMES",
    "BUCKET_ORDER_NAMES",
    "COMPRESSION_NAMES",
    "INDEX_NAMES",
]

#: Relation operator registry keys (see :mod:`repro.core.operators`).
OPERATOR_NAMES = (
    "identity",
    "translation",
    "diagonal",
    "linear",
    "complex_diagonal",
    "affine",
)

#: Comparator registry keys (see :mod:`repro.core.comparators`).
COMPARATOR_NAMES = ("dot", "cos", "l2")

#: Loss registry keys (see :mod:`repro.core.losses`).
LOSS_NAMES = ("ranking", "logistic", "softmax")

#: Bucket iteration orders (see :mod:`repro.graph.buckets`).
BUCKET_ORDER_NAMES = ("inside_out", "outside_in", "chained", "random")

#: Partition codec names (see :mod:`repro.graph.compression`).
COMPRESSION_NAMES = ("none", "fp16", "int8")

#: Serving index implementations (see :mod:`repro.serving`).
INDEX_NAMES = ("exact", "ivfpq")


class ConfigError(ValueError):
    """Raised when a configuration fails validation."""


def fingerprint(params: Mapping[str, Any]) -> str:
    """Short stable hash of a parameter dict: sha256 of its sorted-key
    JSON, first 16 hex chars. Benchmark records, training traces and
    serving traces all stamp this, so equal parameters compare."""
    blob = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: Removed fields, each with a test for the values every older
#: ``config.json`` carries (``to_dict`` wrote all fields) that ask for
#: nothing: those are dropped on load. Any other value, e.g. the never
#: implemented ``all_negs: true``, is refused like an unknown key.
_RETIRED = {
    "EntitySchema": {"num_features": lambda v, data: type(v) is int and (
        v >= 1 if data.get("featurized") else v == 0)},
    "RelationSchema": {"all_negs": lambda v, data: v is False},
}


def _build(cls, data: Mapping[str, Any]):
    """``cls(**data)``, refusing any key that is not a field of ``cls``
    (a knob nothing reads must fail loudly, not be ignored)."""
    retired = _RETIRED.get(cls.__name__, {})
    kept = {
        k: v for k, v in data.items()
        if not (k in retired and retired[k](v, data))
    }
    unknown = sorted(set(kept) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} key(s): {', '.join(unknown)}"
        )
    return cls(**kept)


@dataclass(frozen=True)
class EntitySchema:
    """Schema for one entity type.

    Parameters
    ----------
    num_partitions:
        Number of partitions ``P`` this entity type is split into.
        ``1`` means the type is unpartitioned and its embeddings are
        treated as shared parameters in distributed mode (synchronised
        through the parameter server rather than the partition server).
    featurized:
        If true, entities of this type are represented as bags of
        features: their embedding is the mean of the feature embeddings
        listed for each entity, and the feature-embedding table is a
        shared parameter. The table attached to the model defines the
        feature vocabulary (its row count).
    """

    num_partitions: int = 1
    featurized: bool = False

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ConfigError(
                f"num_partitions must be >= 1, got {self.num_partitions}"
            )
        if self.featurized and self.num_partitions != 1:
            raise ConfigError(
                "featurized entity types cannot be partitioned; their "
                "feature table is a shared parameter"
            )


@dataclass(frozen=True)
class RelationSchema:
    """Schema for one relation type.

    Parameters
    ----------
    name:
        Human-readable relation name.
    lhs, rhs:
        Names of the source / destination entity types. Every edge of
        this relation connects an ``lhs`` entity to an ``rhs`` entity
        (the paper's typed-negatives rule follows from this).
    operator:
        Relation operator applied to embeddings before comparison; one
        of :data:`OPERATOR_NAMES`.
    weight:
        Multiplier applied to the loss of this relation's edges.
    """

    name: str
    lhs: str
    rhs: str
    operator: str = "identity"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.operator not in OPERATOR_NAMES:
            raise ConfigError(
                f"unknown operator {self.operator!r}; "
                f"expected one of {OPERATOR_NAMES}"
            )
        if self.weight <= 0:
            raise ConfigError(f"relation weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of the embedding serving layer (``repro serve``).

    Lives inside :class:`ConfigSchema` so one JSON file describes a run
    end to end — train with it, then serve from the checkpoint it
    produced with the same file. The comparator is *not* repeated
    here: serving reads it from the snapshot manifest, which records
    the training config's choice.

    Parameters
    ----------
    index:
        ``"exact"`` (brute-force chunked scan — the recall-1.0
        baseline) or ``"ivfpq"`` (IVF coarse quantizer + optional PQ).
    num_lists:
        IVF coarse cells; ~``sqrt(n)`` is a reasonable starting point.
    nprobe:
        Cells scanned per query — *the* recall/latency knob.
        ``nprobe = num_lists`` (PQ off) degenerates to the exact scan.
    pq_subvectors:
        ``0`` stores float vectors in the lists; ``M > 0`` stores one
        byte per subvector (``dimension`` must be divisible by ``M``).
    refine:
        ``0`` off; ``r >= 1`` re-scores the top ``k*r`` PQ candidates
        against the raw mmap-backed vectors.
    kmeans_iters, train_sample, seed:
        Index-build cost/determinism knobs.
    batch_size:
        Queries per pinned-snapshot batch in the query service.
    default_k:
        Neighbours returned when a query does not say.
    slow_batch_seconds:
        Batches slower than this emit a sampled ``serve.query.slow``
        span and a structured log line (``0.0`` disables the slow-query
        log entirely).
    """

    index: str = "exact"
    num_lists: int = 64
    nprobe: int = 8
    pq_subvectors: int = 0
    refine: int = 0
    kmeans_iters: int = 10
    train_sample: int = 20_000
    seed: int = 0
    batch_size: int = 1024
    default_k: int = 10
    slow_batch_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.index not in INDEX_NAMES:
            raise ConfigError(
                f"unknown serving index {self.index!r}; "
                f"expected one of {INDEX_NAMES}"
            )
        if self.num_lists < 1:
            raise ConfigError(
                f"num_lists must be >= 1, got {self.num_lists}"
            )
        if not 1 <= self.nprobe <= self.num_lists:
            raise ConfigError(
                f"nprobe must be in [1, num_lists={self.num_lists}], "
                f"got {self.nprobe}"
            )
        if self.pq_subvectors < 0:
            raise ConfigError("pq_subvectors must be >= 0 (0 disables PQ)")
        if self.refine < 0:
            raise ConfigError("refine must be >= 0 (0 disables)")
        if self.refine and not self.pq_subvectors:
            raise ConfigError(
                "refine only applies to PQ indexes; set pq_subvectors "
                "or drop refine"
            )
        if self.kmeans_iters < 0:
            raise ConfigError("kmeans_iters must be >= 0")
        if self.train_sample < 1:
            raise ConfigError("train_sample must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("serving batch_size must be >= 1")
        if self.default_k < 1:
            raise ConfigError("default_k must be >= 1")
        if self.slow_batch_seconds < 0:
            raise ConfigError(
                "slow_batch_seconds must be >= 0 (0 disables the "
                "slow-query log)"
            )


@dataclass(frozen=True)
class ConfigSchema:
    """Top-level training configuration.

    The defaults follow the paper's "typical setup" (Section 4.3): batches
    of 1000 edges split into chunks of 50, 50 uniform negatives appended
    per chunk, margin ranking loss with row-wise Adagrad, and an equal mix
    (``alpha = 0.5``) of data-prevalence and uniform negative sampling.
    """

    entities: Mapping[str, EntitySchema]
    relations: Sequence[RelationSchema]
    dimension: int = 100

    # Scoring.
    comparator: str = "dot"

    # Loss.
    loss: str = "ranking"
    margin: float = 0.1

    # Negative sampling. The α-mix of data-prevalence vs uniform
    # negatives (paper Section 3.1, α = 0.5 default) is realised by the
    # ratio num_batch_negs : num_uniform_negs — batch negatives are
    # drawn from edge endpoints and therefore follow the data
    # distribution.
    num_batch_negs: int = 50
    num_uniform_negs: int = 50
    disable_batch_negs: bool = False

    # Optimisation.
    lr: float = 0.1
    relation_lr: float | None = None
    num_epochs: int = 5
    # A batch is one gradient update; its chunks are only the groups of
    # edges that share a negative pool per side (paper Figure 3).
    batch_size: int = 1000
    chunk_size: int = 50
    num_workers: int = 1

    # Partitioned training.
    bucket_order: str = "inside_out"
    checkpoint_dir: str | None = None
    # Pipelined bucket training (paper Section 4.1's latency hiding):
    # prefetch the next bucket's partitions while training the current
    # one, keep recently evicted partitions in an LRU cache, and flush
    # dirty partitions on a background writeback thread. Only takes
    # effect when some entity type is partitioned; embeddings are
    # bit-identical to the serial path under a fixed seed. With
    # num_machines > 1 the same machinery runs per machine against the
    # partition server: the lock server's reserve() predicts each
    # machine's next bucket, whose partitions are prefetched over the
    # (simulated) network while the current bucket trains, and evicted
    # partitions are pushed back asynchronously under a deferred
    # release that other machines cannot observe until the push lands.
    pipeline: bool = False
    # Byte budget of the partition staging cache, per trainer/machine
    # (None = unlimited, 0 = no retention: every evicted partition is
    # flushed synchronously and dropped, and prefetch is disabled —
    # serial memory footprint, serial I/O behaviour).
    partition_cache_budget: int | None = None
    # Stratum passes (paper footnote 3): divide each bucket's edges
    # into N parts and sweep the bucket grid N times per epoch,
    # training one part per visit. Interleaving buckets more often
    # counteracts the slower convergence of grouped (non-i.i.d.) edge
    # sampling, at the cost of proportionally more partition swaps.
    # Single-machine trainer only.
    stratum_passes: int = 1
    # Partition codec for swapped partitions: on the wire (partition
    # server transfers and hosted shards) and on disk (single-machine
    # swap files, checkpoint embedding partitions). "none" is the
    # bit-exact fp32 baseline; "fp16" halves transfer bytes; "int8"
    # (symmetric per-row quantisation) quarters them at a bounded
    # per-row error. Optimizer state always stays fp32.
    partition_compression: str = "none"
    # Push dirty-row deltas (row_indices + rows) instead of whole
    # partitions on distributed writeback; applied server-side under
    # the per-key version check, so a stale delta degrades to a full
    # push. With partition_compression="none" this is exactly lossless.
    writeback_delta: bool = False
    # Write a Chrome trace_event JSON file of the run's spans here
    # (view in chrome://tracing / Perfetto, or analyze with
    # ``python -m repro.telemetry PATH``). None (default) keeps the
    # span tracer fully disarmed: hot paths see a shared no-op span.
    trace_path: str | None = None

    # Distributed training.
    num_machines: int = 1
    parameter_sync_interval: int = 10

    # Embedding serving (``repro serve`` / ``repro query`` read this
    # section; training ignores it).
    serving: ServingConfig = field(default_factory=ServingConfig)

    # Evaluation during training (single-machine trainer only).
    eval_fraction: float = 0.0

    # Reproducibility.
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.entities:
            raise ConfigError("at least one entity type is required")
        if not self.relations:
            raise ConfigError("at least one relation is required")
        for rel in self.relations:
            for side, ent in (("lhs", rel.lhs), ("rhs", rel.rhs)):
                if ent not in self.entities:
                    raise ConfigError(
                        f"relation {rel.name!r} references unknown {side} "
                        f"entity type {ent!r}"
                    )
        names = [rel.name for rel in self.relations]
        if len(set(names)) != len(names):
            raise ConfigError("relation names must be unique")
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        if self.comparator not in COMPARATOR_NAMES:
            raise ConfigError(
                f"unknown comparator {self.comparator!r}; "
                f"expected one of {COMPARATOR_NAMES}"
            )
        if self.loss not in LOSS_NAMES:
            raise ConfigError(
                f"unknown loss {self.loss!r}; expected one of {LOSS_NAMES}"
            )
        if self.bucket_order not in BUCKET_ORDER_NAMES:
            raise ConfigError(
                f"unknown bucket_order {self.bucket_order!r}; "
                f"expected one of {BUCKET_ORDER_NAMES}"
            )
        if any(
            rel.operator == "complex_diagonal" for rel in self.relations
        ) and self.dimension % 2:
            raise ConfigError(
                "complex_diagonal operators require an even dimension "
                "(real and imaginary halves)"
            )
        if self.num_batch_negs < 0 or self.num_uniform_negs < 0:
            raise ConfigError("negative counts must be >= 0")
        if self.num_batch_negs == 0 and self.num_uniform_negs == 0:
            raise ConfigError("at least one source of negatives is required")
        if self.margin < 0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.relation_lr is not None and self.relation_lr <= 0:
            raise ConfigError("relation_lr must be > 0 when given")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if self.chunk_size > self.batch_size:
            raise ConfigError("chunk_size cannot exceed batch_size")
        if self.num_epochs < 0:
            raise ConfigError("num_epochs must be >= 0")
        if self.num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if self.num_machines < 1:
            raise ConfigError("num_machines must be >= 1")
        if self.num_machines > 1:
            max_parts = max(e.num_partitions for e in self.entities.values())
            if max_parts < 2 * self.num_machines:
                raise ConfigError(
                    f"distributed training on {self.num_machines} machines "
                    f"requires at least {2 * self.num_machines} partitions "
                    f"(got {max_parts}); the lock server can only keep "
                    "P/2 machines busy"
                )
        if self.parameter_sync_interval < 1:
            raise ConfigError("parameter_sync_interval must be >= 1")
        if self.stratum_passes < 1:
            raise ConfigError("stratum_passes must be >= 1")
        if (
            self.partition_cache_budget is not None
            and self.partition_cache_budget < 0
        ):
            raise ConfigError(
                "partition_cache_budget must be >= 0 bytes (or None for "
                "unlimited)"
            )
        if self.partition_compression not in COMPRESSION_NAMES:
            raise ConfigError(
                f"unknown partition_compression "
                f"{self.partition_compression!r}; "
                f"expected one of {COMPRESSION_NAMES}"
            )
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ConfigError("eval_fraction must be in [0, 1)")
        if (
            self.serving.pq_subvectors
            and self.dimension % self.serving.pq_subvectors
        ):
            raise ConfigError(
                f"serving.pq_subvectors ({self.serving.pq_subvectors}) "
                f"must divide dimension ({self.dimension})"
            )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def relation_lr_effective(self) -> float:
        """Learning rate for relation-operator parameters."""
        return self.relation_lr if self.relation_lr is not None else self.lr

    def relation_index(self, name: str) -> int:
        """Return the integer id of relation ``name``."""
        for i, rel in enumerate(self.relations):
            if rel.name == name:
                return i
        raise KeyError(f"no relation named {name!r}")

    def entity_partitions(self, entity_type: str) -> int:
        """Number of partitions of ``entity_type``."""
        return self.entities[entity_type].num_partitions

    def num_buckets(self) -> int:
        """Number of edge buckets implied by the partition counts.

        With both sides of some relation partitioned into ``P`` parts the
        grid has ``P x P`` buckets; if only one side is partitioned it
        degenerates to ``P`` buckets (paper Figure 1, centre).
        """
        lhs = max(self.entities[r.lhs].num_partitions for r in self.relations)
        rhs = max(self.entities[r.rhs].num_partitions for r in self.relations)
        return lhs * rhs

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-compatible dict representation."""
        out = asdict(self)
        out["entities"] = {k: asdict(v) for k, v in self.entities.items()}
        out["relations"] = [asdict(r) for r in self.relations]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConfigSchema":
        """Reconstruct a config from :meth:`to_dict` output; any key
        that is not a field raises :class:`ConfigError`."""
        data = dict(data)
        data["entities"] = {
            k: _build(EntitySchema, v) for k, v in data["entities"].items()
        }
        data["relations"] = [
            _build(RelationSchema, r) for r in data["relations"]
        ]
        if "serving" in data and not isinstance(
            data["serving"], ServingConfig
        ):
            data["serving"] = _build(ServingConfig, data["serving"])
        return _build(cls, data)

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def fingerprint(self) -> str:
        """:func:`fingerprint` of the workload-defining config fields.

        Used by the trace differ to refuse apples-to-oranges
        comparisons — which is why output artifact paths (checkpoint
        dir, trace file) are excluded: two runs of the same workload
        that differ only in where they write results must compare.
        """
        params = self.to_dict()
        for output_field in ("checkpoint_dir", "trace_path"):
            params.pop(output_field, None)
        return fingerprint(params)

    @classmethod
    def from_json(cls, text: str) -> "ConfigSchema":
        """Parse a config from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "ConfigSchema":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def single_entity_config(
    *,
    num_partitions: int = 1,
    operator: str = "identity",
    relation_names: Sequence[str] = ("follow",),
    **kwargs: Any,
) -> ConfigSchema:
    """Build a config for the common homogeneous-graph case.

    One entity type named ``"node"`` and one relation per name in
    ``relation_names``, all with the same operator. Entity counts live
    with the graph (:class:`~repro.graph.entity_storage.EntityStorage`),
    not the config.
    """
    return ConfigSchema(
        entities={"node": EntitySchema(num_partitions=num_partitions)},
        relations=[
            RelationSchema(name=name, lhs="node", rhs="node", operator=operator)
            for name in relation_names
        ],
        **kwargs,
    )
