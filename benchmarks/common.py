"""Shared builders for the benchmark suite.

All benchmark scales are laptop-sized stand-ins for the paper's
datasets (``benchmarks/paper/run.py`` quotes the paper's numbers beside
each claim); the *trends* across configurations are the reproduction
target, not absolute numbers. Datasets are module-cached so sweeps over
partitions/machines reuse one graph.
"""

from __future__ import annotations

import functools
import json
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.config import (
    ConfigSchema,
    EntitySchema,
    RelationSchema,
    fingerprint,
)
from repro.core.model import EmbeddingModel
from repro.core.tables import DenseEmbeddingTable
from repro.core.trainer import Trainer
from repro.datasets import (
    fb15k_like,
    freebase_like,
    livejournal_like,
    split_with_coverage,
    twitter_like,
    youtube_like,
)
from repro.eval.ranking import LinkPredictionEvaluator
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from repro.graph.storage import PartitionedEmbeddingStorage

# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def provenance(params: dict) -> dict:
    """Commit hash + config fingerprint for a ``BENCH_*.json`` report.

    Every benchmark stamps this into its report so the per-PR perf
    trajectory is attributable to an exact code revision and parameter
    set: two reports are comparable iff their ``config_fingerprint``
    matches. Outside a git checkout (tarball, CI cache) the commit
    fields degrade to None rather than failing the benchmark.
    """
    commit = None
    dirty = None
    try:
        repo_dir = Path(__file__).resolve().parent
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=repo_dir,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True, text=True, timeout=10, cwd=repo_dir,
            )
            if status.returncode == 0:
                dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "config_fingerprint": fingerprint(params),
    }


def time_us(fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` of the mean µs of ``calls`` calls (after
    one untimed warm-up call) — the micro benchmarks' clock."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def append_history(
    report: dict, path: "str | Path" = "BENCH_history.jsonl"
) -> None:
    """Append a finished report to the append-only benchmark history.

    One JSON object per line. Unlike the per-run ``BENCH_*.json``
    snapshot (overwritten every run), the history accumulates, and each
    line carries the report's provenance block — so the perf trajectory
    across commits can be reconstructed from one file without scraping
    CI artifacts: group lines by ``provenance.config_fingerprint`` and
    sort by commit.
    """
    with open(path, "a") as fh:
        fh.write(json.dumps(report, sort_keys=True, default=str) + "\n")


# ----------------------------------------------------------------------
# Datasets (cached; one instance per suite run)
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def livejournal_splits(num_nodes=4000, seed=0):
    g = livejournal_like(num_nodes=num_nodes, seed=seed)
    train, test = split_with_coverage(
        g.edges, [0.75, 0.25], np.random.default_rng(seed)
    )
    return g, train, test


@functools.lru_cache(maxsize=None)
def youtube_splits(num_nodes=4000, seed=0):
    g = youtube_like(num_nodes=num_nodes, seed=seed)
    train, test = split_with_coverage(
        g.edges, [0.75, 0.25], np.random.default_rng(seed)
    )
    return g, train, test


@functools.lru_cache(maxsize=None)
def fb15k_splits(seed=0):
    kg = fb15k_like(seed=seed)
    train, valid, test = split_with_coverage(
        kg.edges, [0.8, 0.1, 0.1], np.random.default_rng(seed)
    )
    return kg, train, valid, test


@functools.lru_cache(maxsize=None)
def freebase_splits(num_entities=12_000, num_relations=20,
                    num_edges=150_000, seed=0):
    # 20 relations keeps edges-per-relation-per-bucket near the real
    # Freebase ratio at P=16 (the paper's 2.7B edges / 25k relations).
    # A bucket's chunks are packed into full batches whatever their
    # relations, so what more relations cost at this reduced scale is
    # short chunks, not small updates: at P=16 (527-edge buckets, one
    # BLAS thread, 2-core box) an epoch trains at 92 k edges/s with 20
    # relations (48 k while a batch held one relation) and at 27 k with
    # 100 (17 k), where a bucket is ~100 tails of ~5 edges and every
    # chunk width is its own ~0.2 ms run of score matmuls; at P=1 both
    # run at ~265 k.
    kg = freebase_like(
        num_entities=num_entities, num_relations=num_relations,
        num_edges=num_edges, seed=seed,
    )
    train, valid, test = split_with_coverage(
        kg.edges, [0.9, 0.05, 0.05], np.random.default_rng(seed)
    )
    return kg, train, valid, test


@functools.lru_cache(maxsize=None)
def twitter_splits(num_nodes=8000, seed=0):
    g = twitter_like(num_nodes=num_nodes, avg_degree=25.0, seed=seed)
    train, valid, test = split_with_coverage(
        g.edges, [0.9, 0.05, 0.05], np.random.default_rng(seed)
    )
    return g, train, valid, test


# ----------------------------------------------------------------------
# Configs
# ----------------------------------------------------------------------


def social_config(**kw) -> ConfigSchema:
    defaults = dict(
        entities={"node": EntitySchema()},
        relations=[
            RelationSchema(
                name="follow", lhs="node", rhs="node", operator="identity"
            )
        ],
        dimension=64, comparator="cos", loss="ranking", margin=0.1,
        lr=0.1, num_epochs=10, batch_size=1000, chunk_size=100,
        num_batch_negs=50, num_uniform_negs=50,
    )
    defaults.update(kw)
    return ConfigSchema(**defaults)


def kg_config(num_relations: int, operator="translation", **kw) -> ConfigSchema:
    defaults = dict(
        entities={"ent": EntitySchema()},
        relations=[
            RelationSchema(
                name=f"r{i}", lhs="ent", rhs="ent", operator=operator
            )
            for i in range(num_relations)
        ],
        dimension=64, comparator="dot", loss="ranking", margin=0.1,
        lr=0.1, num_epochs=10, batch_size=1000, chunk_size=100,
        num_batch_negs=50, num_uniform_negs=50,
    )
    defaults.update(kw)
    return ConfigSchema(**defaults)


# ----------------------------------------------------------------------
# Train / evaluate pipelines
# ----------------------------------------------------------------------


def build_entities(config: ConfigSchema, counts: "dict[str, int]",
                   seed: int = 0) -> EntityStorage:
    entities = EntityStorage(counts)
    for name, schema in config.entities.items():
        if schema.num_partitions > 1:
            entities.set_partitioning(
                name,
                partition_entities(
                    counts[name], schema.num_partitions,
                    np.random.default_rng(seed),
                ),
            )
    return entities


def train_single(config, counts, train_edges, storage_dir=None,
                 after_epoch=None, seed=0):
    """Train on one machine; returns (model, TrainingStats)."""
    entities = build_entities(config, counts, seed)
    model = EmbeddingModel(config, entities, np.random.default_rng(seed))
    storage = (
        PartitionedEmbeddingStorage(storage_dir)
        if storage_dir is not None
        else None
    )
    trainer = Trainer(
        config, model, entities, storage, np.random.default_rng(seed)
    )
    stats = trainer.train(train_edges, after_epoch=after_epoch)
    # Re-load any swapped-out partitions for evaluation.
    if storage is not None:
        for name in entities.types:
            if name not in config.entities:
                continue
            for p in range(entities.num_partitions(name)):
                if not model.has_table(name, p):
                    emb, state = storage.load(name, p)
                    model.set_table(name, p, DenseEmbeddingTable(emb, state))
    return model, stats


def eval_ranking(model, eval_edges, train_edges=None, num_candidates=1000,
                 sampling="uniform", filtered=False, filter_edges=None,
                 max_eval=3000, seed=0):
    """Standard evaluation call used by most benchmarks."""
    rng = np.random.default_rng(seed)
    if len(eval_edges) > max_eval:
        idx = rng.choice(len(eval_edges), max_eval, replace=False)
        eval_edges = eval_edges[idx]
    ev = LinkPredictionEvaluator(model, filter_edges=filter_edges)
    return ev.evaluate(
        eval_edges,
        num_candidates=num_candidates,
        candidate_sampling=sampling,
        train_edges=train_edges,
        filtered=filtered,
        rng=np.random.default_rng(seed),
    )


def mb(nbytes: int) -> str:
    return f"{nbytes / 1e6:.1f}"
