"""Batched query front end over a :class:`SnapshotManager`.

:class:`QueryService` is the piece a network transport would wrap:
it slices incoming query matrices into bounded batches (so one giant
request can't blow up the score-matrix temporaries or block a swap's
refcount drain for long), pins one snapshot per batch, and keeps
always-on serving metrics (query/batch counters, per-batch latency
histogram) plus ``serve.query`` spans when telemetry is armed.

Version semantics: each batch is answered by exactly one snapshot
(table + index pinned together — never a mixed view). With
``auto_refresh=True`` the service polls ``CURRENT`` between batches,
so a long query stream picks up a newly published snapshot at the
next batch boundary without dropping a single query.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.serving.index import ExactIndex
from repro.serving.ivfpq import IVFPQIndex
from repro.serving.snapshot import SnapshotManager
from repro.telemetry.exposition import render_prometheus
from repro.telemetry.metrics import view

__all__ = ["QueryService", "ServingStats", "make_index"]

#: Structured slow-query lines go here (one JSON object per record).
_SLOW_LOG = logging.getLogger("repro.serving.slow")

#: After the first ``_SLOW_SAMPLE`` slow batches, only every
#: ``_SLOW_SAMPLE``-th one emits a span/log line — a sustained
#: overload must not turn the observability layer into the bottleneck.
_SLOW_SAMPLE = 10


def make_index(serving, comparator: str):
    """Instantiate the configured (unbuilt) index implementation.

    ``serving`` is a :class:`~repro.config.ServingConfig`; the
    comparator comes from the snapshot manifest (i.e. the training
    config), not from the serving config — the metric is a property
    of the embeddings, not of the server.
    """
    if serving.index == "exact":
        return ExactIndex(comparator=comparator)
    if serving.index == "ivfpq":
        return IVFPQIndex(
            comparator=comparator,
            num_lists=serving.num_lists,
            nprobe=serving.nprobe,
            seed=serving.seed,
        )
    raise ValueError(f"unknown serving index {serving.index!r}")


@dataclass
class ServingStats:
    """Point-in-time snapshot of a service's counters."""

    queries: int
    batches: int
    seconds: float
    swaps: int
    refreshes: int
    version: "int | None"
    #: Per-batch latency quantiles in seconds (0.0 until a batch ran).
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    slow_batches: int = 0

    @property
    def qps(self) -> float:
        return self.queries / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> str:
        ver = "-" if self.version is None else f"v{self.version}"
        line = (
            f"serving {ver}: {self.queries} queries / "
            f"{self.batches} batches in {self.seconds:.3f}s "
            f"({self.qps:,.0f} QPS), {self.swaps} swaps"
        )
        if self.batches:
            line += (
                f", batch p50/p95/p99 "
                f"{self.p50 * 1e3:.2f}/{self.p95 * 1e3:.2f}/"
                f"{self.p99 * 1e3:.2f} ms"
            )
        if self.slow_batches:
            line += f", {self.slow_batches} slow"
        return line


class QueryService:
    """Batched k-NN queries with per-batch snapshot pinning."""

    def __init__(
        self,
        manager: SnapshotManager,
        batch_size: int = 1024,
        default_k: int = 10,
        auto_refresh: bool = False,
        slow_batch_seconds: float = 0.0,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if default_k < 1:
            raise ValueError("default_k must be >= 1")
        if slow_batch_seconds < 0:
            raise ValueError("slow_batch_seconds must be >= 0")
        self.manager = manager
        self.batch_size = batch_size
        self.default_k = default_k
        self.auto_refresh = auto_refresh
        self.slow_batch_seconds = slow_batch_seconds
        metrics = manager.metrics
        self._m_queries = metrics.counter("serve.queries")
        self._m_batches = metrics.counter("serve.batches")
        self._m_seconds = metrics.counter("serve.seconds")
        self._m_slow = metrics.counter("serve.slow_batches")
        self._h_batch = metrics.histogram("serve.batch_seconds")

    def query(
        self,
        vectors: np.ndarray,
        k: "int | None" = None,
        exclude_self: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` over the live snapshot; ``(q, k)`` ids + scores.

        Batches larger than ``batch_size`` are split; each slice is
        answered by one pinned snapshot (a swap landing mid-stream
        takes effect at the next slice boundary when
        ``auto_refresh`` is on).
        """
        k = self.default_k if k is None else k
        vectors = np.atleast_2d(np.asarray(vectors))
        out_idx = []
        out_scores = []
        for lo in range(0, len(vectors), self.batch_size):
            hi = min(lo + self.batch_size, len(vectors))
            excl = (
                exclude_self[lo:hi] if exclude_self is not None else None
            )
            if self.auto_refresh and lo > 0:
                self.manager.refresh()
            idx, scores = self._query_batch(vectors[lo:hi], k, excl)
            out_idx.append(idx)
            out_scores.append(scores)
        return (
            np.concatenate(out_idx, axis=0),
            np.concatenate(out_scores, axis=0),
        )

    def query_pinned(
        self,
        vectors: np.ndarray,
        k: "int | None" = None,
        exclude_self: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One-batch query that also reports the answering version.

        The swap-race tests lean on this: the returned version is the
        one whose table *and* index produced the results, by
        construction (both live inside the pinned snapshot).
        """
        k = self.default_k if k is None else k
        vectors = np.atleast_2d(np.asarray(vectors))
        with self.manager.acquire() as snap:
            idx, scores = self._run(snap, vectors, k, exclude_self)
            return idx, scores, snap.version

    def _query_batch(self, batch, k, exclude_self):
        with self.manager.acquire() as snap:
            return self._run(snap, batch, k, exclude_self)

    def _run(self, snap, batch, k, exclude_self):
        start = time.perf_counter()
        with telemetry.span(
            "serve.query", cat="serve",
            version=snap.version, queries=len(batch), k=k,
        ):
            idx, scores = snap.index.query(
                batch, k=k, exclude_self=exclude_self
            )
        elapsed = time.perf_counter() - start
        self._m_queries.inc(len(batch))
        self._m_batches.inc()
        self._m_seconds.inc(elapsed)
        self._h_batch.observe(elapsed)
        if (
            self.slow_batch_seconds > 0.0
            and elapsed > self.slow_batch_seconds
        ):
            self._note_slow(snap.version, len(batch), k, elapsed)
        return idx, scores

    def _note_slow(self, version, queries, k, elapsed) -> None:
        """Count a slow batch; emit a sampled span + structured line."""
        nth = self._m_slow.inc()
        if nth > _SLOW_SAMPLE and nth % _SLOW_SAMPLE:
            return
        with telemetry.span(
            "serve.query.slow", cat="serve",
            version=version, queries=queries, k=k,
            elapsed_s=round(elapsed, 6), nth=int(nth),
        ):
            pass
        _SLOW_LOG.warning(
            "%s",
            json.dumps(
                {
                    "event": "serve.query.slow",
                    "version": version,
                    "queries": queries,
                    "k": k,
                    "elapsed_s": round(elapsed, 6),
                    "threshold_s": self.slow_batch_seconds,
                    "nth_slow_batch": int(nth),
                },
                sort_keys=True,
            ),
        )

    def stats(self) -> ServingStats:
        qs = self._h_batch.quantiles((0.5, 0.95, 0.99))
        return view(
            ServingStats, self.manager.metrics,
            version=self.manager.current_version(),
            p50=qs[0.5], p95=qs[0.95], p99=qs[0.99],
        )

    def stats_text(self) -> str:
        """Prometheus text exposition of the service's registry (what
        ``repro metrics`` prints)."""
        return render_prometheus(self.manager.metrics)
