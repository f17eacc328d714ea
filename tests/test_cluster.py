"""Integration tests for the simulated distributed trainer."""

import numpy as np
import pytest

from repro.config import ConfigError, ConfigSchema, EntitySchema, RelationSchema
from repro.distributed.cluster import DistributedTrainer
from repro.eval.ranking import LinkPredictionEvaluator
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from tests.helpers import (
    RecordingServer,
    counts,
    record_thread_starts,
    slow_put_server,
)


def _graph(n=300, extra=2500, seed=0):
    rng = np.random.default_rng(seed)
    src = np.arange(n)
    dst = (src + 1) % n
    es = rng.integers(0, n, extra)
    ed = (es + rng.integers(1, 4, extra)) % n
    return EdgeList(
        np.concatenate([src, es]),
        np.zeros(n + extra, dtype=np.int64),
        np.concatenate([dst, ed]),
    )


def _setup(num_machines, nparts, n=300, seed=0, **kw):
    defaults = dict(
        dimension=16, num_epochs=3, batch_size=200, chunk_size=50,
        lr=0.1, num_batch_negs=10, num_uniform_negs=10,
        parameter_sync_interval=2,
    )
    defaults.update(kw)
    config = ConfigSchema(
        entities={"node": EntitySchema(num_partitions=nparts)},
        relations=[
            RelationSchema(
                name="link", lhs="node", rhs="node", operator="translation"
            )
        ],
        num_machines=num_machines,
        **defaults,
    )
    entities = EntityStorage({"node": n})
    entities.set_partitioning(
        "node", partition_entities(n, nparts, np.random.default_rng(seed))
    )
    return config, entities


class TestThreadMode:
    def test_modelled_nic_is_gone(self):
        config, entities = _setup(1, 2)
        with pytest.raises(ValueError, match="bandwidth_bytes_per_s"):
            DistributedTrainer(config, entities, bandwidth_bytes_per_s=1e6)
        DistributedTrainer(config, entities, bandwidth_bytes_per_s=None)

    @pytest.mark.parametrize(
        "field, value", [("stratum_passes", 2), ("eval_fraction", 0.1)]
    )
    def test_single_machine_knobs_refused(self, field, value):
        config, entities = _setup(1, 2, **{field: value})
        with pytest.raises(ConfigError, match=field):
            DistributedTrainer(config, entities)

    def test_single_machine_trains(self):
        config, entities = _setup(1, 2)
        trainer = DistributedTrainer(config, entities)
        model, stats = trainer.train(_graph())
        assert stats.total_edges > 0
        assert len(stats.machines) == 1
        assert stats.machines[0].buckets_trained == 3 * 4

    def test_two_machines_learn_aligned_space(self):
        """Quality with 2 machines must be close to 1 machine."""
        edges = _graph()
        mrrs = {}
        for m, p in [(1, 4), (2, 4)]:
            config, entities = _setup(m, p, num_epochs=6, seed=1)
            trainer = DistributedTrainer(config, entities)
            model, _ = trainer.train(edges)
            ev = LinkPredictionEvaluator(model)
            mrrs[m] = ev.evaluate(
                edges[:600], num_candidates=100,
                rng=np.random.default_rng(0),
            ).mrr
        assert mrrs[2] > 0.6 * mrrs[1]
        assert mrrs[1] > 0.3  # sanity: the task is learnable

    def test_machine_stats_populated(self):
        config, entities = _setup(2, 4)
        trainer = DistributedTrainer(config, entities)
        _, stats = trainer.train(_graph())
        assert len(stats.machines) == 2
        total_buckets = sum(m.buckets_trained for m in stats.machines)
        assert total_buckets == 3 * 16
        assert all(m.peak_resident_bytes > 0 for m in stats.machines)
        assert len(stats.epoch_times) == 3

    def test_after_epoch_callback_sees_full_model(self):
        config, entities = _setup(2, 4)
        trainer = DistributedTrainer(config, entities)
        snapshots = []

        def cb(epoch, stats):
            emb = trainer.assemble_model().global_embeddings("node")
            e = stats.epochs[-1]
            snapshots.append((epoch, float(np.linalg.norm(emb)), e))
            assert stats.epoch_times[-1] == e.wall_time > 0

        _, stats = trainer.train(_graph(), after_epoch=cb)
        assert [e for e, _, _ in snapshots] == [0, 1, 2]
        assert all(np.isfinite(v) for _, v, _ in snapshots)
        # One EpochStats per epoch, summed over both machines' reports.
        assert [e for _, _, e in snapshots] == stats.epochs
        for e in stats.epochs:
            assert e.num_edges == len(_graph())
            assert np.isfinite(e.mean_loss) and e.mean_loss > 0
            assert e.swaps > 0 and e.train_time > 0 and e.io_time > 0
        assert stats.total_edges == sum(m.num_edges for m in stats.machines)

    def test_partition_server_holds_all_partitions_after_run(self):
        config, entities = _setup(2, 4)
        trainer = DistributedTrainer(config, entities)
        trainer.train(_graph())
        assert trainer.partition_server.keys() == [
            ("node", p) for p in range(4)
        ]

    def test_memory_decreases_with_more_machines(self):
        edges = _graph()
        peaks = {}
        for m, p in [(2, 8), (4, 8)]:
            config, entities = _setup(m, p, num_epochs=1)
            trainer = DistributedTrainer(config, entities)
            _, stats = trainer.train(edges)
            peaks[m] = stats.peak_resident_bytes
        assert peaks[4] < peaks[2]

    def test_worker_exception_propagates(self):
        config, entities = _setup(2, 4)
        trainer = DistributedTrainer(config, entities)
        bad = EdgeList(
            np.asarray([10_000]), np.asarray([0]), np.asarray([0])
        )  # src id out of range → worker failure
        with pytest.raises(Exception):
            trainer.train(bad)

    def test_unpartitioned_type_via_parameter_server(self):
        """A small unpartitioned entity type syncs through the PS."""
        config = ConfigSchema(
            entities={
                "user": EntitySchema(num_partitions=4),
                "cat": EntitySchema(),
            },
            relations=[
                RelationSchema(name="in", lhs="user", rhs="cat"),
                RelationSchema(
                    name="follows", lhs="user", rhs="user",
                    operator="translation",
                ),
            ],
            dimension=8, num_epochs=2, num_machines=2,
            batch_size=100, chunk_size=20,
            num_batch_negs=5, num_uniform_negs=5,
        )
        entities = EntityStorage({"user": 200, "cat": 10})
        entities.set_partitioning(
            "user", partition_entities(200, 4, np.random.default_rng(0))
        )
        rng = np.random.default_rng(1)
        n_e = 1000
        rel = rng.integers(0, 2, n_e)
        src = rng.integers(0, 200, n_e)
        dst = np.where(
            rel == 0, rng.integers(0, 10, n_e), rng.integers(0, 200, n_e)
        )
        edges = EdgeList(src, rel, dst)
        trainer = DistributedTrainer(config, entities)
        model, stats = trainer.train(edges)
        assert model.global_embeddings("cat").shape == (10, 8)
        # The cat table must have been registered with the PS.
        assert "table_cat" in trainer.parameter_server.names()


class TestPipelinedDistributed:
    """Pipelined (prefetch + async push-back) distributed training."""

    def test_single_machine_bit_identical_to_serial(self):
        """On a 4-partition grid the pipelined run must reproduce the
        serial distributed path exactly under a fixed seed: prefetching
        only moves transfers off the critical path and first-touch
        initialisation stays on the owning machine."""
        edges = _graph()
        models = {}
        for pipelined in (False, True):
            config, entities = _setup(1, 4, pipeline=pipelined)
            trainer = DistributedTrainer(config, entities)
            models[pipelined], _ = trainer.train(edges)
        np.testing.assert_array_equal(
            models[False].global_embeddings("node"),
            models[True].global_embeddings("node"),
        )
        for p in range(4):
            np.testing.assert_array_equal(
                models[False].get_table("node", p).optimizer.state,
                models[True].get_table("node", p).optimizer.state,
            )

    def test_single_machine_prefetch_and_reservation_stats(self):
        config, entities = _setup(1, 4, pipeline=True)
        trainer = DistributedTrainer(config, entities)
        _, stats = trainer.train(_graph())
        m = stats.machines[0]
        # Uncontended reservations are always right.
        assert m.reservations > 0
        assert m.reservation_hits == m.reservations
        assert stats.reservation_accuracy == 1.0
        # Epoch-0 first touches are the only misses; everything later
        # is staged (prefetched or retained) in the partition cache.
        assert m.prefetch_misses == 4
        assert m.prefetch_hits > 0
        assert m.stale_prefetches == 0
        # The lock server saw the same prediction accuracy.
        ls = trainer.lock_server.stats
        assert ls.reservation_misses == 0
        assert ls.reservation_hits == ls.reservations

    def test_two_machines_train_and_server_complete(self):
        """Under contention reservations may lose (stolen buckets) and
        staged copies may go stale — both must degrade to misses, never
        to wrong data, and every partition must land on the server."""
        config, entities = _setup(2, 4, num_epochs=3, pipeline=True)
        trainer = DistributedTrainer(config, entities)
        model, stats = trainer.train(_graph())
        assert sum(m.buckets_trained for m in stats.machines) == 3 * 16
        assert trainer.partition_server.keys() == [
            ("node", p) for p in range(4)
        ]
        assert np.isfinite(model.global_embeddings("node")).all()
        total_swapins = sum(
            m.prefetch_hits + m.prefetch_misses for m in stats.machines
        )
        assert total_swapins > 0
        assert 0.0 <= stats.prefetch_hit_rate <= 1.0
        assert 0.0 <= stats.reservation_accuracy <= 1.0

    def test_two_machines_pipelined_quality_aligned(self):
        """Async push-back must not desynchronise the embedding space:
        deferred release keeps a partition unavailable until its push
        lands, so quality stays close to the serial distributed path."""
        edges = _graph()
        mrrs = {}
        for pipelined in (False, True):
            config, entities = _setup(
                2, 4, num_epochs=6, seed=1, pipeline=pipelined
            )
            trainer = DistributedTrainer(config, entities)
            model, _ = trainer.train(edges)
            ev = LinkPredictionEvaluator(model)
            mrrs[pipelined] = ev.evaluate(
                edges[:600], num_candidates=100,
                rng=np.random.default_rng(0),
            ).mrr
        assert mrrs[True] > 0.6 * mrrs[False]

    def test_cache_budget_zero_still_correct(self):
        """budget=0 disables staging (and prefetch) but the deferred
        release / drain-barrier protocol must still hold."""
        edges = _graph()
        config, entities = _setup(1, 4, pipeline=True)
        serial_model, _ = DistributedTrainer(config, entities).train(edges)
        config0, entities0 = _setup(
            1, 4, pipeline=True, partition_cache_budget=0
        )
        trainer = DistributedTrainer(config0, entities0)
        model, stats = trainer.train(edges)
        np.testing.assert_array_equal(
            serial_model.global_embeddings("node"),
            model.global_embeddings("node"),
        )
        assert stats.machines[0].prefetch_hits == 0


@pytest.mark.slow
class TestProcessMode:
    def test_process_mode_trains_and_matches_quality(self):
        edges = _graph()
        config, entities = _setup(2, 4, num_epochs=4, seed=2)
        trainer = DistributedTrainer(config, entities, mode="process")
        model, stats = trainer.train(edges)
        assert len(stats.machines) == 2
        assert stats.total_edges == 4 * len(edges)
        ev = LinkPredictionEvaluator(model)
        m = ev.evaluate(
            edges[:600], num_candidates=100, rng=np.random.default_rng(0)
        )
        assert m.mrr > 0.2

    def test_process_mode_invalid_mode(self):
        config, entities = _setup(1, 2)
        with pytest.raises(ValueError, match="unknown mode"):
            DistributedTrainer(config, entities, mode="rpc")

    def test_process_mode_pipelined_trains(self):
        """The pipeline's prefetch/writeback threads talk to the
        servers through manager proxies in process mode."""
        config, entities = _setup(2, 4, num_epochs=2, pipeline=True)
        trainer = DistributedTrainer(config, entities, mode="process")
        model, stats = trainer.train(_graph())
        assert sum(m.buckets_trained for m in stats.machines) == 2 * 16
        assert np.isfinite(model.global_embeddings("node")).all()
        assert sum(
            m.prefetch_hits + m.prefetch_misses for m in stats.machines
        ) > 0

    def test_failed_run_leaves_no_child_process(self):
        """Whatever ends the run — here the coordinator's callback —
        the server manager and the workers go down with it, and the
        trainer stops handing out proxies to a half-trained cluster."""
        import multiprocessing

        def boom(epoch, stats):
            raise RuntimeError("after_epoch failed")

        config, entities = _setup(2, 4, num_epochs=2)
        trainer = DistributedTrainer(config, entities, mode="process")
        with pytest.raises(RuntimeError, match="after_epoch failed"):
            trainer.train(_graph(), after_epoch=boom)
        assert multiprocessing.active_children() == []
        assert trainer.partition_server is None


def _failing_machine(monkeypatch, machine=0, epoch=1):
    """Make ``machine``'s ``BucketExecutor.train`` raise in ``epoch``
    (an executor is flushed once per finished epoch). Patched on the
    class, so forked machine processes inherit it."""
    from repro.core.trainer import BucketExecutor

    flush, train = BucketExecutor.flush, BucketExecutor.train

    def counting_flush(self, keep_resident):
        self.flushes = getattr(self, "flushes", 0) + 1
        return flush(self, keep_resident)

    def failing_train(self, bucket, edges):
        if (self.committer._machine == machine
                and getattr(self, "flushes", 0) == epoch):
            raise RuntimeError("injected machine failure")
        return train(self, bucket, edges)

    monkeypatch.setattr(BucketExecutor, "flush", counting_flush)
    monkeypatch.setattr(BucketExecutor, "train", failing_train)


class TestEpochServices:
    """The coordinator runs the single-machine epoch loop: a cluster
    run checkpoints every epoch, and a machine failure surfaces."""

    def test_machine_failure_keeps_last_epoch_checkpoint(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main, save_edges
        from repro.core.checkpointing import load_model

        _failing_machine(monkeypatch)
        ckpt = tmp_path / "ckpt"
        config, entities = _setup(2, 4, checkpoint_dir=str(ckpt))
        with pytest.raises(RuntimeError, match="machine failure") as info:
            DistributedTrainer(config, entities).train(_graph())
        message = str(info.value)
        assert "machine 0: RuntimeError('injected machine failure')" in message
        assert "Traceback" in message and "in failing_train" in message
        _, _, _, metadata = load_model(ckpt)
        assert metadata["epoch"] == 0
        save_edges(tmp_path / "test.npz", _graph()[:300])
        assert main([
            "eval", "--checkpoint", str(ckpt),
            "--edges", str(tmp_path / "test.npz"), "--candidates", "20",
        ]) == 0
        assert "checkpoint epoch: 0" in capsys.readouterr().out

    @pytest.mark.slow
    def test_machine_failure_leaves_no_child_process(self, monkeypatch):
        import multiprocessing

        _failing_machine(monkeypatch)
        config, entities = _setup(2, 4)
        trainer = DistributedTrainer(config, entities, mode="process")
        with pytest.raises(RuntimeError, match="injected machine failure"):
            trainer.train(_graph())
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("codec", ["none", "int8"])
    def test_last_checkpoint_is_the_returned_model(
        self, tmp_path, monkeypatch, codec
    ):
        """One machine's grants are deterministic. Its run writes a
        checkpoint per epoch, and the last one holds exactly what
        ``save_model`` of the returned model writes (the end-of-run save
        the CLI used to make)."""
        import repro.core.checkpointing as checkpointing

        writes = []
        save_files = checkpointing._save_model_files

        def recording(checkpoint_dir, model, entities, metadata, codec):
            writes.append(metadata["epoch"])
            return save_files(checkpoint_dir, model, entities, metadata, codec)

        monkeypatch.setattr(checkpointing, "_save_model_files", recording)
        ckpt, end = tmp_path / "ckpt", tmp_path / "end"
        config, entities = _setup(
            1, 4, checkpoint_dir=str(ckpt), partition_compression=codec
        )
        model, _ = DistributedTrainer(config, entities).train(_graph())
        assert writes == [0, 1, 2]
        checkpointing.save_model(
            end, model, entities, metadata={"epoch": 2}, codec=codec
        )
        files = sorted(p.relative_to(end) for p in end.rglob("*.npz"))
        assert len(files) == 5  # shared.npz and four partitions
        assert sorted(p.relative_to(ckpt) for p in ckpt.rglob("*.npz")) == files
        for name in files:
            with np.load(ckpt / name) as got, np.load(end / name) as want:
                assert got.files == want.files
                for key in want.files:
                    np.testing.assert_array_equal(got[key], want[key])


class TestSerialReleaseFetchRace:
    """Regression for the serial-path release/fetch race: historically
    the serial protocol released a bucket before pushing its partitions
    (the push happened lazily at the next swap), so another machine
    could be granted the partition and fetch stale bytes from the
    server. Both paths now defer the release and the serial swap
    commits each partition only after its push lands."""

    def test_foreign_acquire_only_after_push_lands(self, monkeypatch):
        """Forced interleaving: puts are artificially slow, so any
        not-deferred release opens a wide window in which another
        machine's acquire would be granted a partition whose push has
        not landed. The instrumented lock server checks, at every
        cross-machine handover, that a completed server put happened
        *after* the previous holder's release."""
        import threading

        from repro.distributed import cluster as cluster_mod
        from repro.distributed.lock_server import LockServer

        seq_lock = threading.Lock()
        seq = [0]
        last_put_seq: dict = {}
        release_seq: dict = {}
        last_holder: dict = {}
        violations = []

        def put_landed(entity_type, part):
            with seq_lock:
                seq[0] += 1
                last_put_seq[part] = seq[0]

        class CheckingLockServer(LockServer):
            def acquire(self, machine):
                bucket = super().acquire(machine)
                if bucket is not None:
                    with seq_lock:
                        for p in (bucket.lhs, bucket.rhs):
                            prev = last_holder.get(p)
                            if prev is None or prev == machine:
                                continue
                            # Cross-machine handover: the previous
                            # holder's push must have landed after its
                            # release, or we are about to fetch stale
                            # bytes.
                            if last_put_seq.get(p, -1) <= release_seq.get(
                                p, -1
                            ):
                                violations.append((machine, p))
                return bucket

            def release(self, machine, bucket, defer=False):
                super().release(machine, bucket, defer=defer)
                with seq_lock:
                    seq[0] += 1
                    for p in (bucket.lhs, bucket.rhs):
                        release_seq[p] = seq[0]
                        last_holder[p] = machine

        monkeypatch.setattr(
            cluster_mod, "PartitionServer", slow_put_server(put_landed)
        )
        monkeypatch.setattr(cluster_mod, "LockServer", CheckingLockServer)

        config, entities = _setup(2, 4, num_epochs=3)
        trainer = DistributedTrainer(config, entities)
        model, stats = trainer.train(_graph())
        assert violations == []
        assert sum(m.buckets_trained for m in stats.machines) == 3 * 16
        assert np.isfinite(model.global_embeddings("node")).all()

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_index_commits_only_after_every_types_push(
        self, monkeypatch, pipelined
    ):
        """Two partitioned entity types share each partition index
        (relations in both directions keep both types' partitions
        resident), and lock-server deferral is keyed by index: the
        index may only be handed to another machine once *every*
        type's push for it has landed. Committing after the first
        type's push leaves the second type's bytes local while another
        machine fetches the stale server copy."""
        import threading

        from repro.distributed import cluster as cluster_mod
        from repro.distributed.lock_server import LockServer

        types = ("item", "user")
        seq_lock = threading.Lock()
        seq = [0]
        last_put_seq: dict = {}
        release_seq: dict = {}
        last_holder: dict = {}
        violations = []

        def put_landed(entity_type, part):
            with seq_lock:
                seq[0] += 1
                last_put_seq[(entity_type, part)] = seq[0]

        class CheckingLockServer(LockServer):
            def acquire(self, machine):
                bucket = super().acquire(machine)
                if bucket is not None:
                    with seq_lock:
                        for p in (bucket.lhs, bucket.rhs):
                            prev = last_holder.get(p)
                            if prev is None or prev == machine:
                                continue
                            for t in types:
                                if last_put_seq.get(
                                    (t, p), -1
                                ) <= release_seq.get(p, -1):
                                    violations.append((machine, t, p))
                return bucket

            def release(self, machine, bucket, defer=False):
                super().release(machine, bucket, defer=defer)
                with seq_lock:
                    seq[0] += 1
                    for p in (bucket.lhs, bucket.rhs):
                        release_seq[p] = seq[0]
                        last_holder[p] = machine

        monkeypatch.setattr(
            cluster_mod, "PartitionServer", slow_put_server(put_landed)
        )
        monkeypatch.setattr(cluster_mod, "LockServer", CheckingLockServer)

        n, nparts = 200, 4
        config = ConfigSchema(
            entities={t: EntitySchema(num_partitions=nparts) for t in types},
            relations=[
                RelationSchema(name="likes", lhs="user", rhs="item"),
                RelationSchema(name="liked_by", lhs="item", rhs="user"),
            ],
            dimension=8, num_epochs=3, num_machines=2, batch_size=200,
            chunk_size=50, num_batch_negs=5, num_uniform_negs=5,
            pipeline=pipelined,
        )
        entities = EntityStorage({t: n for t in types})
        for i, t in enumerate(types):
            entities.set_partitioning(
                t, partition_entities(n, nparts, np.random.default_rng(i))
            )
        rng = np.random.default_rng(0)
        edges = EdgeList(
            rng.integers(0, n, 2000), rng.integers(0, 2, 2000),
            rng.integers(0, n, 2000),
        )
        trainer = DistributedTrainer(config, entities)
        model, stats = trainer.train(edges)
        assert violations == []
        assert stats.total_edges == 3 * len(edges)
        assert trainer.partition_server.keys() == [
            (t, p) for t in types for p in range(nparts)
        ]

    def test_serial_two_machine_quality_survives_contention(self):
        """With the race closed, contended serial training must stay
        aligned with the single-machine space (this was the observable
        symptom of fetching stale partitions: silent quality loss)."""
        edges = _graph()
        mrrs = {}
        for m in (1, 2):
            config, entities = _setup(m, 4, num_epochs=6, seed=3)
            trainer = DistributedTrainer(config, entities)
            model, _ = trainer.train(edges)
            ev = LinkPredictionEvaluator(model)
            mrrs[m] = ev.evaluate(
                edges[:600], num_candidates=100,
                rng=np.random.default_rng(0),
            ).mrr
        assert mrrs[1] > 0.3
        assert mrrs[2] > 0.6 * mrrs[1]


class TestCompressedTransport:
    def test_uncompressed_delta_serial_bit_identical(self):
        """writeback_delta with codec none is exact: pushing only the
        dirty rows over a current baseline reconstructs the partition
        bit-for-bit, so the whole run must match the plain serial path."""
        edges = _graph()
        models = {}
        for delta in (False, True):
            config, entities = _setup(1, 4, writeback_delta=delta)
            trainer = DistributedTrainer(config, entities)
            models[delta], stats = trainer.train(edges)
        np.testing.assert_array_equal(
            models[False].global_embeddings("node"),
            models[True].global_embeddings("node"),
        )
        for p in range(4):
            np.testing.assert_array_equal(
                models[False].get_table("node", p).optimizer.state,
                models[True].get_table("node", p).optimizer.state,
            )

    def test_uncompressed_delta_pipelined_bit_identical(self):
        """Same oracle through the pipelined path (async writeback
        carrying dirty-row hints)."""
        edges = _graph()
        models = {}
        for delta in (False, True):
            config, entities = _setup(
                1, 4, pipeline=True, writeback_delta=delta
            )
            trainer = DistributedTrainer(config, entities)
            models[delta], _ = trainer.train(edges)
        np.testing.assert_array_equal(
            models[False].global_embeddings("node"),
            models[True].global_embeddings("node"),
        )

    def test_serial_delta_writeback_pushes_deltas(self):
        """The synchronous pipeline persists inline; the dirty-row hint
        must survive that path or ``writeback_delta`` silently degrades
        to full pushes on the serial distributed trainer."""
        config, entities = _setup(1, 4, writeback_delta=True)
        _, stats = DistributedTrainer(config, entities).train(_graph())
        assert stats.machines[0].delta_pushes > 0

    def test_wire_stats_populated(self):
        config, entities = _setup(
            2, 4, partition_compression="int8", writeback_delta=True
        )
        trainer = DistributedTrainer(config, entities)
        _, stats = trainer.train(_graph())
        for m in stats.machines:
            assert m.wire_bytes_sent > 0
            assert m.wire_bytes_received > 0
            assert m.wire_bytes_saved > 0
        assert stats.wire_bytes_total > 0
        assert stats.wire_bytes_saved > 0
        # The server's own accounting agrees that bytes were saved.
        assert trainer.partition_server.stats.bytes_saved > 0

    def test_wire_stats_zero_when_uncompressed(self):
        config, entities = _setup(1, 2, num_epochs=1)
        trainer = DistributedTrainer(config, entities)
        _, stats = trainer.train(_graph())
        m = stats.machines[0]
        assert m.wire_bytes_sent > 0  # traffic happened...
        assert m.wire_bytes_saved == 0  # ...but nothing was compressed
        assert m.delta_pushes == 0

    def test_int8_transport_quality_sanity(self):
        """Per-row symmetric int8 on partition transfers must not
        meaningfully degrade link-prediction quality."""
        edges = _graph()
        mrrs = {}
        for codec in ("none", "int8"):
            config, entities = _setup(
                1, 4, num_epochs=6, seed=1, partition_compression=codec
            )
            trainer = DistributedTrainer(config, entities)
            model, _ = trainer.train(edges)
            ev = LinkPredictionEvaluator(model)
            mrrs[codec] = ev.evaluate(
                edges[:600], num_candidates=100,
                rng=np.random.default_rng(0),
            ).mrr
        assert mrrs["none"] > 0.3
        assert mrrs["int8"] > 0.7 * mrrs["none"]

    def test_server_hosts_compressed_partitions(self):
        config, entities = _setup(1, 4, partition_compression="int8")
        plain_cfg, plain_ents = _setup(1, 4)
        edges = _graph()
        t_int8 = DistributedTrainer(config, entities)
        t_int8.train(edges)
        t_plain = DistributedTrainer(plain_cfg, plain_ents)
        t_plain.train(edges)
        assert sum(t_int8.partition_server.shard_nbytes()) < 0.5 * sum(
            t_plain.partition_server.shard_nbytes()
        )


class TestRealWire:
    """What crosses the server boundary is the encoded payload — through
    a live manager proxy the pickled bytes are the codec's bytes — and
    the per-machine wire counters are read off it."""

    ROWS, DIM = 4000, 64

    @pytest.fixture
    def manager(self):
        from repro.distributed.cluster import _ServerManager

        manager = _ServerManager()
        manager.start()
        yield manager
        manager.shutdown()

    def _traffic(self, manager, codec):
        """One full push, one delta push and one fetch through a proxy."""
        from repro.distributed.partition_server import PartitionServerStorage

        wire = RecordingServer(manager.PartitionServer(1, codec))
        store = PartitionServerStorage(wire, use_delta=True)
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((self.ROWS, self.DIM)).astype(np.float32)
        state = rng.random(self.ROWS).astype(np.float32)
        store.save("node", 0, emb, state)
        dirty = np.sort(rng.permutation(self.ROWS)[: self.ROWS // 2])
        emb[dirty] += 1.0
        store.save("node", 0, emb, state, dirty_rows=dirty)
        got, _ = store.load("node", 0)
        np.testing.assert_allclose(got, emb, atol=0.05)
        assert [t[0] for t in wire.transfers] == [
            "put", "put_delta", "get_versioned"
        ]
        return wire, store

    @pytest.mark.parametrize("codec", ["none", "fp16", "int8"])
    def test_pickled_bytes_are_the_encoded_bytes(self, manager, codec):
        wire, store = self._traffic(manager, codec)
        for method, nbytes, pickled, _ in wire.transfers:
            assert nbytes <= pickled <= 1.02 * nbytes, (method, codec)
        # MachineStats.wire_bytes_* are these two adapter counters.
        c = counts(store.metrics)
        assert c["backend.wire_bytes_sent"] == wire.nbytes("put", "put_delta")
        assert c["backend.wire_bytes_received"] == wire.nbytes("get_versioned")
        assert c["backend.delta_pushes"] == 1

    def test_int8_moves_under_a_third_of_the_fp32_bytes(self, manager):
        pickled = {
            codec: [t[2] for t in self._traffic(manager, codec)[0].transfers]
            for codec in ("none", "int8")
        }
        for small, full in zip(pickled["int8"], pickled["none"]):
            assert small <= 0.30 * full

    def test_machine_stats_equal_the_payload_bytes(self, monkeypatch):
        from repro.distributed import cluster as cluster_mod
        from repro.distributed.partition_server import PartitionServer

        wires = []

        def recording_server(*args):
            wires.append(RecordingServer(PartitionServer(*args)))
            return wires[-1]

        monkeypatch.setattr(cluster_mod, "PartitionServer", recording_server)
        config, entities = _setup(
            2, 4, partition_compression="int8", writeback_delta=True,
            pipeline=True,
        )
        _, stats = DistributedTrainer(config, entities).train(_graph())
        (wire,) = wires
        assert sum(m.delta_pushes for m in stats.machines) > 0
        assert sum(m.wire_bytes_sent for m in stats.machines) == wire.nbytes(
            "put", "put_delta"
        )
        # The coordinator's fetches (assemble_model, main thread) are
        # not a machine's.
        assert sum(
            m.wire_bytes_received for m in stats.machines
        ) == wire.nbytes("get_versioned", thread="_machine_main") + wire.nbytes(
            "get_versioned", thread="-prefetch"
        )
        assert wire.nbytes("get_versioned", thread="MainThread") > 0

    @pytest.mark.slow
    def test_thread_and_process_mode_push_the_same_deltas(self):
        """One machine, fixed seed: the transport must not change what
        is pushed, or what comes out."""
        edges = _graph()
        runs = {}
        for mode in ("thread", "process"):
            config, entities = _setup(
                1, 4, partition_compression="int8", writeback_delta=True
            )
            model, stats = DistributedTrainer(
                config, entities, mode=mode
            ).train(edges)
            runs[mode] = (model.global_embeddings("node"), stats.machines[0])
        assert runs["thread"][1].delta_pushes > 0
        for field in ("delta_pushes", "delta_fallbacks", "wire_bytes_sent",
                      "wire_bytes_received", "wire_bytes_saved"):
            assert getattr(runs["thread"][1], field) == getattr(
                runs["process"][1], field
            ), field
        np.testing.assert_array_equal(runs["thread"][0], runs["process"][0])


class TestSharedBucketLoop:
    """Every machine drives the single-machine trainer's
    ``BucketExecutor``; these pin what the collapse promised."""

    def test_hogwild_workers_run_per_machine(self, monkeypatch):
        import threading

        from repro.core.model import EmbeddingModel

        seen: dict = {}
        seen_lock = threading.Lock()
        original = EmbeddingModel.forward_backward_chunk

        def recording(self, *args, **kwargs):
            with seen_lock:
                seen.setdefault(id(self), set()).add(
                    threading.current_thread().name
                )
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            EmbeddingModel, "forward_backward_chunk", recording
        )
        edges = _graph()
        config, entities = _setup(
            2, 4, num_workers=2, batch_size=40, chunk_size=20
        )
        model, stats = DistributedTrainer(config, entities).train(edges)
        assert stats.total_edges == 3 * len(edges)
        assert np.isfinite(sum(m.loss for m in stats.machines))
        assert np.isfinite(model.global_embeddings("node")).all()
        assert len(seen) == 2  # one model per machine
        for names in seen.values():
            # A pool's second worker ran chunks: two threads were
            # inside one machine's bucket at once.
            assert any(name.endswith("_1") for name in names), names

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_serial_mode_starts_no_pipeline_thread(
        self, monkeypatch, pipelined
    ):
        """``pipeline=False`` is the synchronous mode of the shared
        pipeline: no writeback or prefetch thread exists, and every
        partition-server transfer of a machine happens on that
        machine's own thread."""
        import threading

        from repro.distributed import cluster as cluster_mod
        from repro.distributed.partition_server import (
            PartitionServerStorage,
        )

        started = record_thread_starts(monkeypatch)
        # Keyed by the adapter itself, not its id(): a machine's adapter
        # dies with its thread, and the coordinator's may reuse the id.
        callers: dict = {}

        class RecordingAdapter(PartitionServerStorage):
            def load(self, entity_type, part):
                callers.setdefault(self, set()).add(
                    threading.current_thread().name
                )
                return super().load(entity_type, part)

            def save(self, *args, **kwargs):
                callers.setdefault(self, set()).add(
                    threading.current_thread().name
                )
                return super().save(*args, **kwargs)

        monkeypatch.setattr(
            cluster_mod, "PartitionServerStorage", RecordingAdapter
        )
        config, entities = _setup(2, 4, num_epochs=2, pipeline=pipelined)
        DistributedTrainer(config, entities).train(_graph())
        background = [
            name for name in started
            if "-writeback" in name or "-prefetch" in name
        ]
        # The coordinator assembles the model through an adapter too.
        machines = [n for n in callers.values() if n != {"MainThread"}]
        assert len(machines) == 2 and len(callers) == 3
        if pipelined:
            assert background  # the detector sees what it looks for
        else:
            assert background == []
            for names in machines:
                (name,) = names  # one thread per adapter: its machine's
                assert "_machine_main" in name

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_starved_machine_evicts_and_commits(
        self, monkeypatch, pipelined
    ):
        """A machine that holds deferred partitions while the lock
        server has nothing for it must push them back and commit them
        (or two such machines wedge the grid). The lock server here
        starves the machine until its deferrals are gone; since an
        eviction only moves bytes, the run stays bit-identical to an
        unstarved one."""
        import time as time_mod

        from repro.distributed import cluster as cluster_mod
        from repro.distributed.lock_server import LockServer

        starved = []

        class StarvingLockServer(LockServer):
            def acquire(self, machine):
                with self._lock:
                    holding = machine in self._state.deferred.values()
                    remaining = bool(self._state.remaining)
                if holding and remaining and len(starved) < 50:
                    starved.append(time_mod.monotonic())
                    return None
                return super().acquire(machine)

        edges = _graph()
        config, entities = _setup(1, 4, pipeline=pipelined)
        reference, _ = DistributedTrainer(config, entities).train(edges)

        monkeypatch.setattr(cluster_mod, "LockServer", StarvingLockServer)
        config, entities = _setup(1, 4, pipeline=pipelined)
        trainer = DistributedTrainer(config, entities)
        model, stats = trainer.train(edges)
        # Starved after (nearly) every bucket, and never for long: the
        # first idle pass already gave the partitions up.
        assert 3 * 15 <= len(starved) < 50
        # ... so the real scheduler only ever said no at an epoch's end.
        assert trainer.lock_server.stats.failed_acquires == 3
        assert stats.machines[0].buckets_trained == 3 * 16
        np.testing.assert_array_equal(
            reference.global_embeddings("node"),
            model.global_embeddings("node"),
        )


class TestMixedRelationGroups:
    """Three relations over two entity types with two operators, P = 4:
    ``follows`` and ``blocks`` (user -> user, translation) are one
    relation group and share batches; ``likes`` (user -> item,
    diagonal) is its own. Every mode of running it agrees to the bit."""

    USERS, ITEMS = 240, 160

    def _setup(self, num_machines=1, **kw):
        config = ConfigSchema(
            entities={
                "user": EntitySchema(num_partitions=4),
                "item": EntitySchema(num_partitions=4),
            },
            relations=[
                RelationSchema(name="follows", lhs="user", rhs="user",
                               operator="translation"),
                RelationSchema(name="blocks", lhs="user", rhs="user",
                               operator="translation", weight=0.5),
                RelationSchema(name="likes", lhs="user", rhs="item",
                               operator="diagonal"),
            ],
            num_machines=num_machines, dimension=8, num_epochs=2,
            batch_size=60, chunk_size=20, lr=0.1,
            num_batch_negs=10, num_uniform_negs=10, **kw,
        )
        counts = {"user": self.USERS, "item": self.ITEMS}
        entities = EntityStorage(counts)
        for i, (name, count) in enumerate(counts.items()):
            entities.set_partitioning(
                name, partition_entities(count, 4, np.random.default_rng(i))
            )
        rng = np.random.default_rng(2)
        rel = rng.choice(3, 4000, p=[0.5, 0.2, 0.3])
        edges = EdgeList(
            rng.integers(0, self.USERS, 4000), rel,
            np.where(
                rel == 2, rng.integers(0, self.ITEMS, 4000),
                rng.integers(0, self.USERS, 4000),
            ),
        )
        return config, entities, edges

    @staticmethod
    def _state(model):
        arrays = [*model.rel_params, *(o.state for o in model.rel_optimizers)]
        for entity_type in ("user", "item"):
            arrays.append(model.global_embeddings(entity_type))
            arrays += [
                model.get_table(entity_type, p).optimizer.state
                for p in range(4)
            ]
        return arrays

    def _assert_same(self, one, other):
        for got, want in zip(self._state(one), self._state(other)):
            np.testing.assert_array_equal(got, want)

    def test_single_machine_serial_equals_pipelined(self, tmp_path, monkeypatch):
        from repro.core.checkpointing import load_model
        from repro.core.model import EmbeddingModel
        from repro.core.trainer import Trainer

        calls = []
        original = EmbeddingModel.forward_backward_chunk

        def recording(model, rel_id, src, *args, **kwargs):
            calls.append((set(np.unique(rel_id).tolist()), len(src)))
            return original(model, rel_id, src, *args, **kwargs)

        monkeypatch.setattr(EmbeddingModel, "forward_backward_chunk", recording)
        models = {}
        for pipelined in (False, True):
            config, entities, edges = self._setup(
                pipeline=pipelined,
                checkpoint_dir=str(tmp_path / f"ckpt-{pipelined}"),
            )
            model = EmbeddingModel(config, entities, np.random.default_rng(0))
            Trainer(
                config, model, entities, rng=np.random.default_rng(0)
            ).train(edges)
            models[pipelined] = load_model(config.checkpoint_dir)[2]
        self._assert_same(models[False], models[True])
        assert any((p != 0).any() for p in models[False].rel_params)
        # Relations of different groups never share a model call, the
        # two translations do, and their batches are full.
        assert all(rels <= {0, 1} or rels == {2} for rels, _ in calls)
        assert any(rels == {0, 1} for rels, _ in calls)
        sizes = [size for _, size in calls]
        assert max(sizes) == 60 and sizes.count(60) > len(sizes) // 2

    def test_one_machine_distributed_serial_equals_pipelined(self):
        models = {}
        for pipelined in (False, True):
            config, entities, edges = self._setup(pipeline=pipelined)
            models[pipelined], _ = DistributedTrainer(
                config, entities
            ).train(edges)
        self._assert_same(models[False], models[True])

    @pytest.mark.slow
    def test_thread_and_process_mode_push_the_same_deltas(self):
        runs = {}
        for mode in ("thread", "process"):
            config, entities, edges = self._setup(
                partition_compression="int8", writeback_delta=True
            )
            model, stats = DistributedTrainer(
                config, entities, mode=mode
            ).train(edges)
            runs[mode] = (model, stats.machines[0])
        assert runs["thread"][1].delta_pushes > 0
        for field in ("delta_pushes", "delta_fallbacks", "wire_bytes_sent",
                      "wire_bytes_received", "wire_bytes_saved"):
            assert getattr(runs["thread"][1], field) == getattr(
                runs["process"][1], field
            ), field
        self._assert_same(runs["thread"][0], runs["process"][0])
