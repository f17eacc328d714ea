"""Ablation: same-relation batching (§4.3).

"In multi-relation graphs with a small number of relations, we
construct batches of edges that all share the same relation type r.
This improves training speed specifically for the linear relation
operator f_r(t) = A_r t, because it can be formulated as a
matrix-multiply."

We time one epoch of the shipped path — ``iterate_batches`` into
``BucketExecutor._train_batch`` — with grouped batches (relation-pure
chunks of full width, packed into relation-mixed batches) vs ungrouped
ones (shuffle and slice, each slice sorted into relation runs, which
leaves ~``batch_size / num_relations``-edge chunks of every width) for
the linear (RESCAL) operator and, as controls, the
element-wise translation and diagonal operators. Grouped batching must
be faster for linear.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import report_table
from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.core.batching import iterate_batches
from repro.core.model import EmbeddingModel
from repro.core.trainer import BucketExecutor
from repro.graph.buckets import Bucket
from repro.graph.entity_storage import EntityStorage

_ROWS: "dict[tuple[str, bool], float]" = {}
_OPERATORS = ["linear", "translation", "diagonal"]


def _edges(num_entities=2000, num_relations=40, num_edges=30_000):
    """Uniform relation mix — the worst case for ungrouped batching:
    a mixed batch of B edges fragments into ~num_relations tiny chunks,
    each paying its own negative pool and score matmuls."""
    from repro.graph.edgelist import EdgeList

    rng = np.random.default_rng(0)
    return EdgeList(
        rng.integers(0, num_entities, num_edges),
        rng.integers(0, num_relations, num_edges),
        rng.integers(0, num_entities, num_edges),
    ), num_entities, num_relations


def _run_epoch(operator: str, grouped: bool) -> float:
    edges, num_entities, num_relations = _edges()
    config = ConfigSchema(
        entities={"ent": EntitySchema()},
        relations=[
            RelationSchema(name=f"r{i}", lhs="ent", rhs="ent",
                           operator=operator)
            for i in range(num_relations)
        ],
        dimension=64, num_epochs=1, batch_size=1000, chunk_size=100,
        num_batch_negs=50, num_uniform_negs=50, lr=0.1,
    )
    entities = EntityStorage({"ent": num_entities})
    model = EmbeddingModel(config, entities, np.random.default_rng(0))
    model.init_all_partitions(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    executor = BucketExecutor(config, model, entities, rng, pipeline=None)

    t0 = time.perf_counter()
    for batch in iterate_batches(
        edges, config.batch_size, rng, group_by_relation=grouped,
        chunk_size=config.chunk_size, groups=executor.rel_groups,
    ):
        executor._train_batch(Bucket(0, 0), batch, rng)
    elapsed = time.perf_counter() - t0
    return len(edges) / elapsed


def _report_if_done():
    if len(_ROWS) < 2 * len(_OPERATORS):
        return
    rows = []
    for op in _OPERATORS:
        grouped = _ROWS[(op, True)]
        ungrouped = _ROWS[(op, False)]
        rows.append(
            [op, f"{grouped:.0f}", f"{ungrouped:.0f}",
             f"{grouped / ungrouped:.2f}x"]
        )
    report_table(
        "Ablation (§4.3) — same-relation batching (edges/sec)",
        ["operator", "grouped", "ungrouped", "speedup"],
        rows,
    )


@pytest.mark.benchmark(group="ablation-relbatch")
@pytest.mark.parametrize("operator", _OPERATORS)
@pytest.mark.parametrize("grouped", [True, False])
def test_relation_batching(once, operator, grouped):
    speed = once(_run_epoch, operator, grouped)
    _ROWS[(operator, grouped)] = speed
    _report_if_done()
    assert speed > 0


def test_grouped_faster_for_linear():
    if ("linear", True) not in _ROWS or ("linear", False) not in _ROWS:
        pytest.skip("sweep did not run")
    assert _ROWS[("linear", True)] > _ROWS[("linear", False)]
