"""Timing wrappers at the layer boundaries, installed from outside.

The traced child rebinds public names of the program — class
attributes, and from-imported functions at the module that looks them
up — to :meth:`spans.Recorder.wrap` versions, runs the workload, and
puts every original back. Nothing under ``src/`` knows about it, and
the untraced run never imports this module.

Each probe names an owner, an attribute and a span name; its optional
after-hook counts work (rows, bytes, useful outcomes) beside the
timing, outside the span.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import numpy as np

from spans import Recorder

__all__ = ["Probes", "GROUPS"]

GROUPS = ("core", "storage", "distributed", "serving")

#: every Nth row-optimizer call pays for an ``np.unique`` to estimate
#: how many of the rows it was handed were distinct
_UNIQUE_SAMPLE = 16


_MISSING = object()


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


def _ratio(useful: float, attempted: float) -> float:
    return useful / attempted if attempted else 0.0


class Probes:
    """Installs and removes the wrappers; owns the work counters."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: (owner, attribute, what the owner itself held before)
        self._patched: "list[tuple[object, str, object]]" = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: "list[dict[str, float]]" = []

    # -- counters (one dict per thread: ``d[k] += v`` is not atomic) ---

    def _counts(self) -> "dict[str, float]":
        try:
            return self._local.counts
        except AttributeError:
            counts = self._local.counts = defaultdict(float)
            with self._lock:
                self._per_thread.append(counts)
            return counts

    def add(self, name: str, value: float = 1.0) -> None:
        self._counts()[name] += value

    def counts(self) -> "dict[str, float]":
        total: "dict[str, float]" = defaultdict(float)
        with self._lock:
            for counts in self._per_thread:
                for name, value in counts.items():
                    total[name] += value
        return total

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, replacement) -> None:
        # vars(), not getattr(): an inherited attribute is put back by
        # deleting the override, not by copying the parent's.
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _time(self, owner, attr: str, name: str, after=None) -> None:
        self._set(
            owner, attr, self.recorder.wrap(name, getattr(owner, attr), after)
        )

    def remove(self) -> None:
        """Put every original back (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def install(self, groups: "tuple[str, ...]") -> None:
        for group in groups:
            getattr(self, f"_install_{group}")()

    # -- groups --------------------------------------------------------

    def _install_core(self) -> None:
        from repro.core import model, optimizers, tables, trainer
        from repro.distributed import cluster

        add = self.add

        def pool_after(args, kwargs, pool):
            add("sample_pool.cells", pool.mask.size)
            add("sample_pool.unmasked", int(pool.mask.sum()))

        self._time(
            model, "sample_pool", "core.negatives.sample_pool", pool_after
        )
        self._time(
            model.EmbeddingModel, "forward_backward_chunk",
            "core.model.forward_backward_chunk",
            lambda args, kwargs, stats: add("chunk.edges", stats.num_edges),
        )
        self._time(
            tables.DenseEmbeddingTable, "gather", "core.tables.gather",
            lambda args, kwargs, out: add("gather.rows", len(out)),
        )
        self._time(
            tables.DenseEmbeddingTable, "apply_gradients",
            "core.tables.apply_gradients",
        )
        calls = [0]  # per-process sampling phase; a lost tick is harmless

        def row_step_after(args, kwargs, _):
            rows = args[2]
            add("row_step.rows", len(rows))
            calls[0] += 1
            if calls[0] % _UNIQUE_SAMPLE == 0:
                add("row_step.sampled_rows", len(rows))
                add("row_step.sampled_unique", len(np.unique(rows)))

        self._time(
            optimizers.RowAdagrad, "step",
            "core.optimizers.row_adagrad_step", row_step_after,
        )
        self._time(
            optimizers.DenseAdagrad, "step",
            "core.optimizers.dense_adagrad_step",
        )
        for module in (trainer, cluster):
            for attr in ("iterate_batches", "iterate_chunks"):
                self._set(
                    module, attr,
                    self.recorder.wrap_generator(
                        "core.batching.iterate", getattr(module, attr)
                    ),
                )

    def _install_storage(self) -> None:
        from repro.core import checkpointing
        from repro.graph import compression, storage

        add = self.add
        store = storage.PartitionedEmbeddingStorage
        self._time(
            store, "load", "graph.storage.load",
            lambda args, kwargs, out: add("storage.load.bytes", _nbytes(*out)),
        )
        self._time(
            store, "save", "graph.storage.save",
            lambda args, kwargs, _: add(
                "storage.save.bytes", _nbytes(args[3], args[4])
            ),
        )
        pipeline = storage.PartitionPipeline
        self._time(pipeline, "take", "graph.storage.pipeline.take")
        self._time(pipeline, "drain", "graph.storage.pipeline.drain")
        self._time(
            checkpointing, "save_model", "core.checkpointing.save_model",
            lambda args, kwargs, _: add(
                "save_model.bytes", args[1].resident_nbytes()
            ),
        )

        # The "none" codec is the bypass: its encode/decode are views
        # and copies of fp32 arrays, not compression work.
        codec = compression.PartitionCodec

        def skipping_none(timed, original):
            def dispatch(self, *args, **kwargs):
                if self.name == "none":
                    return original(self, *args, **kwargs)
                return timed(self, *args, **kwargs)

            return dispatch

        def encode_after(args, kwargs, payload):
            add("encode.bytes_in", _nbytes(args[1], args[2]))
            add("encode.bytes_out", compression.payload_nbytes(payload))

        for attr, after in (("encode", encode_after), ("decode", None)):
            original = getattr(codec, attr)
            timed = self.recorder.wrap(
                f"graph.compression.{attr}", original, after
            )
            self._set(codec, attr, skipping_none(timed, original))
        self._time(
            compression, "encode_delta", "graph.compression.encode_delta",
            lambda args, kwargs, _: add("encode_delta.rows", len(args[1])),
        )

    def _install_distributed(self) -> None:
        from repro.distributed import (
            cluster, lock_server, parameter_server, partition_server,
        )

        add = self.add
        locks = lock_server.LockServer
        for attr in ("acquire", "reserve", "release"):
            self._time(locks, attr, f"distributed.lock_server.{attr}")
        server = partition_server.PartitionServer
        self._time(
            server, "get_versioned", "distributed.partition_server.get"
        )
        self._time(server, "put", "distributed.partition_server.put")
        self._time(
            server, "put_delta", "distributed.partition_server.put_delta"
        )
        self._time(
            parameter_server.SharedParameterClient, "maybe_sync",
            "distributed.parameter_server.sync",
            lambda args, kwargs, synced: add("sync.done", bool(synced)),
        )
        self._time(
            cluster.DistributedTrainer, "assemble_model",
            "distributed.cluster.assemble_model",
        )

    def _install_serving(self) -> None:
        from repro.core.comparators import make_comparator
        from repro.serving import index, ivfpq, server, shards, snapshot

        add = self.add

        def topk_after(args, kwargs, _):
            add("topk.rows_scanned", len(args[1]) * len(args[2]))

        for module in (index, ivfpq):
            self._time(
                module, "chunked_topk", "serving.index.chunked_topk",
                topk_after,
            )
        self._time(ivfpq.IVFPQIndex, "build", "serving.ivfpq.build")
        self._time(
            ivfpq.IVFPQIndex, "query", "serving.ivfpq.query",
            lambda args, kwargs, _: add(
                "ivf.query_cells", len(args[1]) * args[0].num_items
            ),
        )
        for attr in ("query", "query_pinned"):
            self._time(
                server.QueryService, attr, "serving.server.query"
            )
        self._time(
            snapshot.SnapshotManager, "refresh", "serving.snapshot.refresh"
        )
        self._time(
            shards.MmapShardedTable, "__init__", "serving.shards.open"
        )

        # Cells the comparator scored: the scan work an index actually
        # did, to set against queries x table rows. Counted, not timed
        # — it is the innermost call of every query.
        comparator = type(make_comparator("cos"))
        owner = next(
            c for c in comparator.__mro__ if "score_matrix" in vars(c)
        )
        score_matrix = owner.score_matrix

        def counting(self, a, pool):
            add("score_matrix.cells", len(a) * len(pool))
            return score_matrix(self, a, pool)

        self._set(owner, "score_matrix", counting)

    # -- the metric table ----------------------------------------------

    def layer_metrics(self) -> "dict[str, float]":
        """``<span name>.{calls,busy_s,self_s}`` for every span name,
        plus the work counts and useful/attempted ratios. Busy and
        self time are summed over every thread that ran the layer."""
        out: "dict[str, float]" = {}
        totals = self.recorder.totals()
        for name, layer in totals.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.busy_s"] = layer.busy_s
            out[f"{name}.self_s"] = layer.self_s
        c = self.counts()

        def busy(name: str) -> float:
            return totals[name].busy_s if name in totals else 0.0

        out.update({
            "core.negatives.sample_pool.unmasked_ratio": _ratio(
                c["sample_pool.unmasked"], c["sample_pool.cells"]
            ),
            "core.model.forward_backward_chunk.edges_per_s": _ratio(
                c["chunk.edges"], busy("core.model.forward_backward_chunk")
            ),
            "core.tables.gather.rows": c["gather.rows"],
            "core.optimizers.row_adagrad_step.rows": c["row_step.rows"],
            "core.optimizers.row_adagrad_step.unique_row_ratio": _ratio(
                c["row_step.sampled_unique"], c["row_step.sampled_rows"]
            ),
            "graph.storage.load.bytes": c["storage.load.bytes"],
            "graph.storage.save.bytes": c["storage.save.bytes"],
            "graph.storage.pipeline.take.wait_s":
                busy("graph.storage.pipeline.take"),
            "core.checkpointing.save_model.bytes": c["save_model.bytes"],
            "graph.compression.encode.bytes_in": c["encode.bytes_in"],
            "graph.compression.encode.bytes_out": c["encode.bytes_out"],
            "graph.compression.encode_delta.rows": c["encode_delta.rows"],
            "distributed.parameter_server.sync.done": c["sync.done"],
            "serving.index.chunked_topk.rows_scanned":
                c["topk.rows_scanned"],
            # Comparator cells an IVF query scored (all cells minus
            # the exact kernel's) per query x table row: the share of
            # the table it really scanned, centroids included.
            "serving.ivfpq.query.scanned_row_ratio": _ratio(
                c["score_matrix.cells"] - c["topk.rows_scanned"],
                c["ivf.query_cells"],
            ),
        })
        return out
