"""Stale-by-one lanes: a bucket's model calls follow one schedule, so
the number of threads that train it changes no bit.

Each oracle trains the same config and seed on one lane and on two
(forced through ``repro.core.trainer.host_lanes``, not the config) and
requires bit-identical embeddings, Adagrad state, relation parameters
and per-epoch losses.
"""

import sys
import threading
from functools import partial

import numpy as np
import pytest

from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.core.batching import iterate_batches
from repro.core import trainer as trainer_module
from repro.core.model import EmbeddingModel
from repro.core.tables import DenseEmbeddingTable
from repro.core.trainer import Trainer
from repro.distributed.cluster import DistributedTrainer
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from repro.graph.storage import PartitionedEmbeddingStorage


def _config(nparts=1, **kw):
    defaults = dict(
        entities={"node": EntitySchema(num_partitions=nparts)},
        relations=[RelationSchema(
            name="link", lhs="node", rhs="node", operator="translation",
        )],
        dimension=16, num_epochs=2, batch_size=100, chunk_size=25, lr=0.1,
        num_batch_negs=10, num_uniform_negs=10, seed=3,
    )
    defaults.update(kw)
    return ConfigSchema(**defaults)


def _entities(config, counts):
    entities = EntityStorage(counts)
    for i, (name, count) in enumerate(counts.items()):
        entities.set_partitioning(name, partition_entities(
            count, config.entities[name].num_partitions,
            np.random.default_rng(i),
        ))
    return entities


def _edges(n, m, rel=None, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    rel = np.zeros(m, dtype=np.int64) if rel is None else rel
    return EdgeList(src, rel, (src + rng.integers(1, 6, m)) % n)


def _state(model, losses):
    """Everything training writes, in a fixed order."""
    arrays = [*model.rel_params, *(o.state for o in model.rel_optimizers)]
    for key in model.resident_tables():
        table = model.get_table(*key)
        arrays += [table.weights, table.optimizer.state]
    return arrays, losses


def _train(monkeypatch, lanes, config, entities, edges, tmp_path=None):
    monkeypatch.setattr(trainer_module, "host_lanes", lambda: lanes)
    model = EmbeddingModel(config, entities, np.random.default_rng(5))
    storage = None
    if tmp_path is not None:
        storage = PartitionedEmbeddingStorage(tmp_path / f"lanes-{lanes}")
    stats = Trainer(
        config, model, entities, storage, np.random.default_rng(5)
    ).train(edges)
    if tmp_path is not None:  # every partition, from memory or the store
        for part in range(entities.num_partitions("node")):
            if not model.has_table("node", part):
                model.set_table(
                    "node", part, DenseEmbeddingTable(*storage.load("node", part))
                )
    return _state(model, [e.loss for e in stats.epochs])


def _assert_same(one, other):
    (arrays, losses), (other_arrays, other_losses) = one, other
    assert losses == other_losses
    assert len(arrays) == len(other_arrays)
    for got, want in zip(arrays, other_arrays):
        np.testing.assert_array_equal(got, want)


class TestLanesChangeNoBit:
    def test_one_partition(self, monkeypatch):
        config = _config()
        entities = _entities(config, {"node": 300})
        edges = _edges(300, 3000)
        runs = [_train(monkeypatch, lanes, config, entities, edges)
                for lanes in (1, 2, 2)]
        _assert_same(runs[0], runs[1])
        _assert_same(runs[1], runs[2])  # two 2-lane runs

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_four_partitions(self, monkeypatch, tmp_path, pipeline):
        config = _config(nparts=4, pipeline=pipeline)
        entities = _entities(config, {"node": 400})
        edges = _edges(400, 4000)
        one, two = (
            _train(monkeypatch, lanes, config, entities, edges, tmp_path)
            for lanes in (1, 2)
        )
        _assert_same(one, two)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_two_relation_groups(self, monkeypatch, mixed):
        """Batches of one relation group (the trainer's), and batches
        that mix both groups (ungrouped batching): one turn per model
        call, so a mixed batch's two calls take two turns."""
        if mixed:
            monkeypatch.setattr(
                trainer_module, "iterate_batches",
                partial(iterate_batches, group_by_relation=False),
            )
        config = _config(
            entities={"user": EntitySchema(), "item": EntitySchema()},
            relations=[
                RelationSchema(name="follows", lhs="user", rhs="user",
                               operator="translation"),
                RelationSchema(name="blocks", lhs="user", rhs="user",
                               operator="translation", weight=0.5),
                RelationSchema(name="likes", lhs="user", rhs="item",
                               operator="diagonal"),
            ],
        )
        entities = _entities(config, {"user": 200, "item": 200})
        rng = np.random.default_rng(1)
        edges = _edges(200, 3000, rel=rng.integers(0, 3, 3000))
        counts = {"calls": [], "batches": []}  # list.append is atomic

        def counted(owner, name, key):
            run = getattr(owner, name)

            def counting(*args, **kwargs):
                counts[key].append(1)
                return run(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        counted(EmbeddingModel, "forward_backward_chunk", "calls")
        counted(trainer_module.BucketExecutor, "_train_batch", "batches")
        one, two = (_train(monkeypatch, lanes, config, entities, edges)
                    for lanes in (1, 2))
        _assert_same(one, two)
        assert (len(counts["calls"]) > len(counts["batches"])) == mixed

    def test_one_machine_thread_cluster(self, monkeypatch):
        config = _config(nparts=2, num_machines=1, parameter_sync_interval=2)
        entities = _entities(config, {"node": 300})
        edges = _edges(300, 3000)
        runs = []
        for lanes in (1, 2):
            monkeypatch.setattr(trainer_module, "host_lanes", lambda: lanes)
            model, stats = DistributedTrainer(
                config, entities, mode="thread"
            ).train(edges)
            runs.append(_state(model, [e.loss for e in stats.epochs]))
        _assert_same(*runs)


def _threads_per_model(monkeypatch):
    """Record the threads that ran each model's calls."""
    seen: "dict[int, set[str]]" = {}
    lock = threading.Lock()
    original = EmbeddingModel.forward_backward_chunk

    def recording(self, *args, **kwargs):
        with lock:
            seen.setdefault(id(self), set()).add(threading.current_thread().name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EmbeddingModel, "forward_backward_chunk", recording)
    return seen


class TestTwoLanesRunTwoThreads:
    def test_trainer(self, monkeypatch):
        seen = _threads_per_model(monkeypatch)
        config = _config()
        entities = _entities(config, {"node": 300})
        _train(monkeypatch, 2, config, entities, _edges(300, 3000))
        (names,) = seen.values()
        assert names == {threading.current_thread().name, "trainer-lane-1"}

    def test_lone_machine_has_two_lanes_and_machines_one(self, monkeypatch):
        monkeypatch.setattr(trainer_module, "host_lanes", lambda: 2)
        seen = _threads_per_model(monkeypatch)
        edges = _edges(300, 3000)
        threads = {}
        for machines in (1, 2):
            seen.clear()
            config = _config(nparts=4, num_machines=machines)
            DistributedTrainer(
                config, _entities(config, {"node": 300})
            ).train(edges)
            assert len(seen) == machines  # one model per machine
            threads[machines] = set().union(*seen.values())
        assert "machine-0-lane-1" in threads[1] and len(threads[1]) == 2
        assert not any("lane" in name for name in threads[2])

    def test_short_bucket_runs_inline(self, monkeypatch):
        """Two batches are too few to overlap: no lane is started."""
        started = []
        monkeypatch.setattr(
            threading.Thread, "start",
            lambda self, start=threading.Thread.start: (
                started.append(self.name), start(self)
            ),
        )
        config = _config(batch_size=1500, chunk_size=100)  # two batches
        entities = _entities(config, {"node": 300})
        _train(monkeypatch, 2, config, entities, _edges(300, 3000))
        assert started == []


def _bounded(fn, timeout=120):
    """``fn()`` on a thread joined with a timeout: returns its result or
    raises its error, and fails if it is still running."""
    out = []

    def run():
        try:
            out.append(("ok", fn()))
        except BaseException as exc:
            out.append(("raised", exc))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=timeout)
    assert not worker.is_alive()
    kind, value = out[0]
    if kind == "raised":
        raise value
    return value


def test_more_lanes_than_cores_under_fast_switching(monkeypatch):
    """Four lanes, the interpreter switching threads every 10 us: a
    lost or reordered update would change a bit."""
    config = _config()
    entities = _entities(config, {"node": 300})
    edges = _edges(300, 3000)
    want = _train(monkeypatch, 1, config, entities, edges)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = _bounded(lambda: _train(monkeypatch, 4, config, entities, edges))
    finally:
        sys.setswitchinterval(interval)
    _assert_same(want, got)


def test_a_failing_lane_fails_the_bucket(monkeypatch):
    """An error on either lane surfaces on the caller; the other lane
    leaves its wait instead of hanging."""
    original = EmbeddingModel.forward_backward_chunk
    calls = []

    def failing(self, *args, **kwargs):
        calls.append(threading.current_thread().name)
        if len(calls) == 3:
            raise ValueError("boom")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EmbeddingModel, "forward_backward_chunk", failing)
    config = _config()
    entities = _entities(config, {"node": 300})
    with pytest.raises(ValueError, match="boom"):
        _bounded(lambda: _train(monkeypatch, 2, config, entities, _edges(300, 3000)))
