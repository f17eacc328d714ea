"""Tests for the statistics value objects (training + cluster), and for
the one path every counter-backed ``*Stats`` is read by: ``view`` over
the component's metrics registry, by field name."""

import dataclasses

import numpy as np
import pytest

from repro.config import single_entity_config
from repro.core import trainer
from repro.core.model import ChunkStats, EmbeddingModel
from repro.core.trainer import (
    BucketExecutor,
    EpochStats,
    PipelineStats,
    TrainingStats,
)
from repro.distributed import lock_server, parameter_server, partition_server
from repro.distributed.cluster import DistributedStats, MachineStats
from repro.distributed.lock_server import LockServer, LockServerStats
from repro.distributed.parameter_server import (
    ParameterServer,
    ParameterServerStats,
)
from repro.distributed.partition_server import (
    PartitionServer,
    PartitionServerStats,
)
from repro.graph.buckets import Bucket
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from repro.graph.storage import PartitionedEmbeddingStorage, PartitionPipeline
from repro.serving import server
from repro.serving.server import QueryService, ServingStats
from repro.serving.shards import publish_embeddings
from repro.serving.snapshot import SnapshotManager
from repro.telemetry import metrics
from repro.telemetry.metrics import MetricsRegistry
from tests.helpers import get_arrays, put_arrays


class TestChunkStats:
    def test_merge_accumulates(self):
        a = ChunkStats(loss=1.0, num_edges=10, num_negatives=100, violations=5)
        b = ChunkStats(loss=2.0, num_edges=20, num_negatives=200, violations=7)
        a.merge(b)
        assert a.loss == 3.0
        assert a.num_edges == 30
        assert a.num_negatives == 300
        assert a.violations == 12

    def test_mean_loss_guards_zero(self):
        assert ChunkStats().mean_loss == 0.0
        assert ChunkStats(loss=6.0, num_edges=3).mean_loss == 2.0


class TestEpochStats:
    def test_mean_loss(self):
        e = EpochStats(epoch=0, loss=10.0, num_edges=5)
        assert e.mean_loss == 2.0
        assert EpochStats(epoch=0).mean_loss == 0.0


class TestTrainingStats:
    def test_aggregates(self):
        stats = TrainingStats(
            epochs=[
                EpochStats(epoch=0, num_edges=100, train_time=2.0),
                EpochStats(epoch=1, num_edges=100, train_time=2.0),
            ]
        )
        assert stats.total_edges == 200
        assert stats.edges_per_second == 50.0

    def test_edges_per_second_no_time(self):
        stats = TrainingStats(epochs=[EpochStats(epoch=0, num_edges=10)])
        assert stats.edges_per_second == 0.0


class TestDistributedStats:
    def test_is_training_stats_plus_machines(self):
        stats = DistributedStats(
            epochs=[
                EpochStats(epoch=0, num_edges=30, wall_time=2.0),
                EpochStats(epoch=1, num_edges=30, wall_time=1.5),
            ],
            peak_resident_bytes=300,
            machines=[
                MachineStats(machine=0, num_edges=20),
                MachineStats(machine=1, num_edges=40),
            ],
        )
        assert isinstance(stats, TrainingStats)
        assert stats.epoch_times == [2.0, 1.5]
        assert stats.total_edges == 60

    def test_idle_fraction(self):
        stats = DistributedStats(
            machines=[
                MachineStats(machine=0, train_time=3.0, idle_time=1.0),
                MachineStats(machine=1, train_time=3.0, idle_time=1.0),
            ]
        )
        assert stats.mean_idle_fraction == 0.25

    def test_empty_cluster_safe(self):
        stats = DistributedStats()
        assert stats.peak_resident_bytes == 0
        assert stats.mean_idle_fraction == 0.0
        assert stats.total_edges == 0
        assert stats.epoch_times == []


class TestEpochStatsMerge:
    def test_machine_reports_sum(self):
        total = EpochStats(epoch=3, wall_time=5.0)
        for m in range(2):
            total.merge(EpochStats(
                epoch=3, loss=1.5, num_edges=10, violations=2,
                train_time=1.0, io_time=0.5, swaps=4,
                pipeline=PipelineStats(prefetch_hits=m, prefetch_misses=1),
            ))
        assert total == EpochStats(
            epoch=3, loss=3.0, num_edges=20, violations=4, train_time=2.0,
            io_time=1.0, swaps=8, wall_time=5.0,
            pipeline=PipelineStats(prefetch_hits=1, prefetch_misses=2),
        )


# ----------------------------------------------------------------------
# One stats path: every counter-backed *Stats is a view of a registry
# ----------------------------------------------------------------------


def _lock_server():
    ls = LockServer(2, 2)
    ls.acquire(0)
    ls.reserve(0)
    return lambda: ls.stats


def _partition_server():
    ps = PartitionServer(1)
    put_arrays(ps, "node", 0, np.ones((3, 2), np.float32), np.ones(3, np.float32))
    get_arrays(ps, "node", 0)
    get_arrays(ps, "node", 1)  # a miss
    return lambda: ps.stats


def _parameter_server():
    ps = ParameterServer()
    ps.register("w", np.zeros(3))
    ps.sync({"w": np.ones(3)})
    return lambda: ps.stats


def _executor(tmp_path, synchronous):
    """A two-partition executor that swaps 0 → 1 → 0: two first-touch
    takes, then one take of the partition parked a swap earlier."""
    config = single_entity_config(num_partitions=2, dimension=4)
    entities = EntityStorage({"node": 20})
    entities.set_partitioning(
        "node", partition_entities(20, 2, np.random.default_rng(0))
    )
    rng = np.random.default_rng(0)
    pipe = PartitionPipeline(
        PartitionedEmbeddingStorage(tmp_path / "swap"),
        synchronous=synchronous,
    )
    executor = BucketExecutor(
        config, EmbeddingModel(config, entities, rng), entities, rng, pipe
    )
    for part in (0, 1, 0):
        executor.swap(Bucket(part, part))
    executor.flush(keep_resident=False)
    pipe.close()
    return executor.pipeline_stats


def _query_service(tmp_path):
    emb = np.random.default_rng(0).normal(size=(16, 4)).astype(np.float32)
    publish_embeddings(tmp_path / "snap", emb, comparator="dot")
    manager = SnapshotManager(tmp_path / "snap")
    manager.refresh()
    service = QueryService(manager, batch_size=4)
    service.query(emb[:6], k=2)
    return service.stats


#: (build, stats class, one counter it reads, the field that counter feeds)
COMPONENTS = {
    "lock_server": (
        lambda tmp: _lock_server(), LockServerStats,
        "lockserver.acquires", "acquires",
    ),
    "partition_server": (
        lambda tmp: _partition_server(), PartitionServerStats,
        "server.misses", "misses",
    ),
    "parameter_server": (
        lambda tmp: _parameter_server(), ParameterServerStats,
        "paramserver.pushes", "pushes",
    ),
    "pipelined": (
        lambda tmp: _executor(tmp, synchronous=False), PipelineStats,
        "pipeline.prefetch_hits", "prefetch_hits",
    ),
    "synchronous": (
        lambda tmp: _executor(tmp, synchronous=True), PipelineStats,
        "pipeline.prefetch_misses", "prefetch_misses",
    ),
    "query_service": (
        _query_service, ServingStats, "serve.swaps", "swaps",
    ),
}


@pytest.fixture
def views(monkeypatch):
    """Every object a component's ``view`` call returns, in order."""
    made = []

    def recording(cls, *registries, **given):
        made.append(metrics.view(cls, *registries, **given))
        return made[-1]

    for module in (lock_server, partition_server, parameter_server,
                   trainer, server):
        monkeypatch.setattr(module, "view", recording)
    return made


class TestOneStatsPath:
    @pytest.mark.parametrize("name", COMPONENTS)
    def test_stats_come_out_of_view(self, name, views, tmp_path):
        build, cls, _, _ = COMPONENTS[name]
        read = build(tmp_path)
        views.clear()
        stats = read()
        assert views == [stats] and views[0] is stats
        assert type(stats) is cls
        for f in dataclasses.fields(cls):
            if f.type in ("int", int):
                assert type(getattr(stats, f.name)) is int, f.name

    @pytest.mark.parametrize("name", COMPONENTS)
    def test_renamed_counter_raises_naming_the_field(
        self, name, monkeypatch, tmp_path
    ):
        build, cls, counter, field = COMPONENTS[name]
        real = MetricsRegistry.counter

        def renaming(self, key, **labels):
            return real(self, key + "_v2" if key == counter else key, **labels)

        monkeypatch.setattr(MetricsRegistry, "counter", renaming)
        read = build(tmp_path)
        with pytest.raises(KeyError, match=f"{cls.__name__}.{field}"):
            read()

    def test_two_matching_counters_raise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("lockserver.epochs")
        b.counter("other.epochs")
        with pytest.raises(KeyError, match="LockServerStats.acquires"):
            metrics.view(LockServerStats, a, b)
        with pytest.raises(KeyError, match="lockserver.epochs.*other.epochs"):
            metrics.view(
                LockServerStats, a, b, acquires=0, failed_acquires=0,
                affinity_hits=0, reservations=0, reservation_hits=0,
                reservation_misses=0,
            )

    def test_values(self, tmp_path):
        assert _lock_server()() == LockServerStats(
            acquires=1, reservations=1
        )
        ps = _partition_server()()
        assert (ps.gets, ps.puts, ps.misses) == (2, 1, 1)
        assert _parameter_server()() == ParameterServerStats(
            pulls=1, pushes=1, bytes_transferred=2 * 3 * 8
        )
        pipelined = _executor(tmp_path / "a", synchronous=False)()
        assert (pipelined.prefetch_hits, pipelined.prefetch_misses) == (1, 2)
        served = _query_service(tmp_path)()
        assert (served.queries, served.batches, served.version) == (6, 2, 1)
        assert served.p50 > 0.0

    def test_synchronous_take_counts_nothing(self, tmp_path):
        storage = PartitionedEmbeddingStorage(tmp_path)
        storage.save("node", 0, np.ones((3, 2), np.float32),
                     np.ones(3, np.float32))
        pipe = PartitionPipeline(storage, synchronous=True)
        assert pipe.take("node", 0)[0] is not None
        assert pipe.take("node", 1) == (None, False)
        pipe.park("node", 0, np.ones((3, 2), np.float32),
                  np.ones(3, np.float32))
        pipe.drain()
        assert metrics.view(PipelineStats, pipe.metrics) == PipelineStats()
        assert _executor(tmp_path / "x", synchronous=True)() == PipelineStats()


class TestPipelineStatsArithmetic:
    def test_merge_and_since_cover_every_field(self):
        a = PipelineStats(1, 2, 0.5, 0.25, 3)
        b = PipelineStats(10, 20, 1.0, 2.0, 30)
        total = PipelineStats()
        total.merge(a)
        total.merge(b)
        assert total == PipelineStats(11, 22, 1.5, 2.25, 33)
        assert total.since(a) == b
        assert total.hit_rate == 11 / 33
