"""Nearest-neighbour queries on trained embeddings.

The downstream use of graph embeddings (recommendations, candidate
generation — the applications in the paper's introduction) is k-NN in
embedding space. The implementation now lives in the serving layer:
:class:`~repro.serving.index.ExactIndex` is the exact chunked scan,
one of the :class:`~repro.serving.index.KnnIndex` implementations the
online server, the evaluators and the benchmarks all share.

This module re-exports it under its eval-facing name.
"""

from __future__ import annotations

from repro.serving.index import ExactIndex, KnnIndex

__all__ = ["ExactIndex", "KnnIndex"]
