"""Tests for the command-line interface."""

import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from repro.cli import (
    _apply_overrides,
    _serving_config,
    build_parser,
    load_edges,
    main,
    save_edges,
)
from repro.config import (
    ConfigSchema,
    EntitySchema,
    RelationSchema,
    ServingConfig,
)
from repro.graph.edgelist import EdgeList


@pytest.fixture
def workspace(tmp_path):
    """A config + train/test edge files for a ring graph."""
    n = 120
    rng = np.random.default_rng(0)
    src = np.arange(n)
    dst = (src + 1) % n
    es = rng.integers(0, n, 1000)
    ed = (es + rng.integers(1, 3, 1000)) % n
    edges = EdgeList(
        np.concatenate([src, es]),
        np.zeros(n + 1000, dtype=np.int64),
        np.concatenate([dst, ed]),
    )
    config = ConfigSchema(
        entities={"node": EntitySchema()},
        relations=[
            RelationSchema(name="next", lhs="node", rhs="node",
                           operator="translation")
        ],
        dimension=16, num_epochs=4, batch_size=200, chunk_size=50,
        num_batch_negs=10, num_uniform_negs=10, lr=0.1,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(config.to_json())
    train_path = tmp_path / "train.npz"
    test_path = tmp_path / "test.npz"
    save_edges(train_path, edges[: n + 800])
    save_edges(test_path, edges[n + 800 :])
    return tmp_path, config_path, train_path, test_path


class TestEdgeIO:
    def test_npz_roundtrip(self, tmp_path):
        edges = EdgeList.from_tuples([(0, 0, 1), (1, 1, 2)])
        save_edges(tmp_path / "e.npz", edges)
        assert load_edges(tmp_path / "e.npz") == edges

    def test_npz_weights_roundtrip(self, tmp_path):
        src = np.asarray([0, 1])
        edges = EdgeList(src, src.copy(), src + 1, np.asarray([1.0, 2.0]))
        save_edges(tmp_path / "e.npz", edges)
        out = load_edges(tmp_path / "e.npz")
        np.testing.assert_allclose(out.weights, [1.0, 2.0])

    def test_text_format(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 0 1\n1 0 2\n")
        edges = load_edges(path)
        assert list(edges) == [(0, 0, 1), (1, 0, 2)]

    def test_text_wrong_columns(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError, match="3 columns"):
            load_edges(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_edges(tmp_path / "ghost.npz")


class TestTrainEvalExport:
    def test_full_workflow(self, workspace, capsys):
        tmp_path, config_path, train_path, test_path = workspace
        ckpt = tmp_path / "model"

        rc = main([
            "train", "--config", str(config_path),
            "--edges", str(train_path), "--checkpoint", str(ckpt),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out and "checkpoint written" in out

        rc = main([
            "eval", "--checkpoint", str(ckpt),
            "--edges", str(test_path), "--candidates", "50",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MRR" in out

        out_npy = tmp_path / "emb.npy"
        rc = main([
            "export", "--checkpoint", str(ckpt),
            "--entity-type", "node", "--output", str(out_npy),
        ])
        assert rc == 0
        emb = np.load(out_npy)
        assert emb.shape == (120, 16)

    def test_eval_with_filter(self, workspace, capsys):
        tmp_path, config_path, train_path, test_path = workspace
        ckpt = tmp_path / "model"
        main([
            "train", "--config", str(config_path),
            "--edges", str(train_path), "--checkpoint", str(ckpt),
        ])
        rc = main([
            "eval", "--checkpoint", str(ckpt), "--edges", str(test_path),
            "--candidates", "50",
            "--filter", str(train_path), str(test_path),
        ])
        assert rc == 0
        assert "MRR" in capsys.readouterr().out

    def test_explicit_entity_counts(self, workspace, capsys):
        tmp_path, config_path, train_path, _ = workspace
        rc = main([
            "train", "--config", str(config_path),
            "--edges", str(train_path),
            "--entity-counts", json.dumps({"node": 500}),
        ])
        assert rc == 0
        del capsys

    def test_partitioned_requires_checkpoint(self, workspace, capsys):
        tmp_path, config_path, train_path, _ = workspace
        config = ConfigSchema.from_json(config_path.read_text()).replace(
            entities={"node": EntitySchema(num_partitions=2)}
        )
        p2 = tmp_path / "config2.json"
        p2.write_text(config.to_json())
        rc = main([
            "train", "--config", str(p2), "--edges", str(train_path),
        ])
        assert rc == 2
        assert "requires --checkpoint" in capsys.readouterr().err

    def test_partitioned_training_via_cli(self, workspace, capsys):
        tmp_path, config_path, train_path, _ = workspace
        config = ConfigSchema.from_json(config_path.read_text()).replace(
            entities={"node": EntitySchema(num_partitions=2)}
        )
        p2 = tmp_path / "config2.json"
        p2.write_text(config.to_json())
        rc = main([
            "train", "--config", str(p2), "--edges", str(train_path),
            "--checkpoint", str(tmp_path / "pmodel"),
        ])
        assert rc == 0
        assert "done:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags", [[], ["--pipeline", "--partition-compression", "int8"]],
        ids=["serial", "pipelined-int8"],
    )
    def test_partitioned_round_trip(self, workspace, capsys, flags):
        """Train, then eval, both export formats and a query, all off
        the one complete store the run leaves in the checkpoint."""
        from repro.serving import MmapShardedTable

        tmp_path, config_path, train_path, test_path = workspace
        config = ConfigSchema.from_json(config_path.read_text()).replace(
            entities={"node": EntitySchema(num_partitions=4)}, num_epochs=2
        )
        p4 = tmp_path / "config4.json"
        p4.write_text(config.to_json())
        ckpt, snap, npy = tmp_path / "ckpt", tmp_path / "snap", tmp_path / "e.npy"
        export = ["export", "--checkpoint", str(ckpt), "--entity-type", "node"]
        for argv in (
            ["train", "--config", str(p4), "--edges", str(train_path),
             "--checkpoint", str(ckpt), *flags],
            ["eval", "--checkpoint", str(ckpt), "--edges", str(test_path),
             "--candidates", "50"],
            [*export, "--output", str(npy)],
            [*export, "--output", str(snap), "--format", "mmap"],
            ["query", "--snapshots", str(snap), "--ids", "0,5", "--k", "3"],
        ):
            assert main(argv) == 0, argv
        assert "MRR" in capsys.readouterr().out
        assert sorted(p.name for p in ckpt.iterdir()) == [
            "config.json", "embeddings", "metadata.json", "shared.npz",
        ]
        table = MmapShardedTable.open(snap)
        np.testing.assert_array_equal(np.load(npy), table.as_array())
        table.close()

    def test_pipelined_verbose_counts(self, workspace, capsys):
        """The per-epoch and run-level pipeline counts print as integers
        (a float leaking out of a counter would print ``3.0 hits``)."""
        tmp_path, config_path, train_path, _ = workspace
        config = ConfigSchema.from_json(config_path.read_text()).replace(
            entities={"node": EntitySchema(num_partitions=4)}, num_epochs=3
        )
        p4 = tmp_path / "config4.json"
        p4.write_text(config.to_json())
        assert main([
            "train", "--config", str(p4), "--edges", str(train_path),
            "--checkpoint", str(tmp_path / "ckpt"), "--pipeline", "--verbose",
        ]) == 0
        out = capsys.readouterr().out
        # Epoch 0 initialises the four partitions; after that every
        # swap-in is served from the staging cache.
        assert re.findall(
            r"^epoch (\d): .* \[pipeline: (\d+) hits / (\d+) misses, "
            r"\d+\.\ds stalled\]$", out, re.M,
        ) == [("0", "3", "4"), ("1", "7", "0"), ("2", "7", "0")]
        assert re.search(
            r"^pipeline: 81% prefetch hit rate \(17/21\), ", out, re.M
        )

    def test_distributed_training_via_cli(self, workspace, capsys):
        """num_machines > 1 routes to the cluster trainer; the pipeline
        flags apply to the partition-server prefetch path."""
        tmp_path, config_path, train_path, test_path = workspace
        config = ConfigSchema.from_json(config_path.read_text()).replace(
            entities={"node": EntitySchema(num_partitions=4)},
            num_machines=2,
            num_epochs=2,
        )
        p2 = tmp_path / "config_dist.json"
        p2.write_text(config.to_json())
        rc = main([
            "train", "--config", str(p2), "--edges", str(train_path),
            "--pipeline", "--verbose",
            "--checkpoint", str(tmp_path / "dmodel"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 machines" in out
        assert "reservation accuracy" in out
        assert "checkpoint written" in out
        # The checkpoint is evaluable like any single-machine one.
        rc = main([
            "eval", "--checkpoint", str(tmp_path / "dmodel"),
            "--edges", str(test_path), "--candidates", "20",
        ])
        assert rc == 0


class TestCompressionFlags:
    def test_compressed_partitioned_training(self, workspace, capsys):
        """--partition-compression applies to the single-machine swap
        and checkpoint storage: the partition files on disk must carry
        the int8 codec marker (self-describing format)."""
        tmp_path, config_path, train_path, _ = workspace
        config = ConfigSchema.from_json(config_path.read_text()).replace(
            entities={"node": EntitySchema(num_partitions=2)},
            num_epochs=2,
        )
        p2 = tmp_path / "config2.json"
        p2.write_text(config.to_json())
        rc = main([
            "train", "--config", str(p2), "--edges", str(train_path),
            "--checkpoint", str(tmp_path / "cmodel"),
            "--partition-compression", "int8",
        ])
        assert rc == 0
        assert "done:" in capsys.readouterr().out
        part_files = sorted((tmp_path / "cmodel").rglob("part-*.npz"))
        assert part_files
        for path in part_files:
            with np.load(path) as payload:
                assert str(payload["codec"]) == "int8"
                assert payload["embeddings_q8"].dtype == np.int8

    def test_distributed_wire_summary(self, workspace, capsys):
        tmp_path, config_path, train_path, _ = workspace
        config = ConfigSchema.from_json(config_path.read_text()).replace(
            entities={"node": EntitySchema(num_partitions=4)},
            num_machines=2,
            num_epochs=2,
        )
        p2 = tmp_path / "config_dist.json"
        p2.write_text(config.to_json())
        rc = main([
            "train", "--config", str(p2), "--edges", str(train_path),
            "--checkpoint", str(tmp_path / "dmodel"),
            "--partition-compression", "int8", "--writeback-delta",
            "--verbose",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wire" in out
        assert "int8" in out

    def test_unknown_codec_rejected_by_parser(self, workspace, capsys):
        tmp_path, config_path, train_path, _ = workspace
        with pytest.raises(SystemExit):
            main([
                "train", "--config", str(config_path),
                "--edges", str(train_path),
                "--partition-compression", "zstd",
            ])
        capsys.readouterr()


def _subparsers() -> "dict[str, argparse.ArgumentParser]":
    (sub,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


_SERVING_FLAGS = (
    "--config --index --k --nprobe --num-lists --pq-subvectors --refine "
    "--snapshots"
)

#: Every subcommand's option strings; the config-backed ones changed
#: dest, not spelling.
_OPTIONS = {
    "train": "--checkpoint --config --edges --entity-counts --mode "
             "--partition-cache-budget --partition-compression --pipeline "
             "--trace --verbose --writeback-delta -v",
    "eval": "--candidates --checkpoint --edges --filter --seed",
    "export": "--checkpoint --entity-type --format --output",
    "serve": _SERVING_FLAGS + " --batch-size --metrics-port --output "
                              "--poll --queries --slow-batch --trace",
    "query": _SERVING_FLAGS + " --ids --queries",
    "metrics": _SERVING_FLAGS,
}

_INDEX_FIELDS = {"index", "num_lists", "nprobe", "pq_subvectors", "refine"}

#: The args each subcommand applies as overrides: its dests that are
#: fields of the dataclass it resolves.
_OVERRIDES = {
    "train": (ConfigSchema, {
        "checkpoint_dir", "trace_path", "pipeline", "partition_cache_budget",
        "partition_compression", "writeback_delta",
    }),
    "serve": (ServingConfig,
              _INDEX_FIELDS | {"batch_size", "slow_batch_seconds"}),
    "query": (ServingConfig, _INDEX_FIELDS),
    "metrics": (ServingConfig, _INDEX_FIELDS),
}


class TestParser:
    @pytest.mark.parametrize("command", sorted(_OPTIONS))
    def test_option_strings(self, command):
        parser = _subparsers()[command]
        options = {
            o for a in parser._actions for o in a.option_strings
        } - {"-h", "--help"}
        assert options == set(_OPTIONS[command].split())

    @pytest.mark.parametrize("command", sorted(_OVERRIDES))
    def test_override_dests_are_pinned(self, command):
        cls, expected = _OVERRIDES[command]
        actions = _subparsers()[command]._actions
        names = {f.name for f in dataclasses.fields(cls)}
        overrides = [a for a in actions if a.dest in names]
        assert {a.dest for a in overrides} == expected
        # None = "flag absent": the config file's value survives.
        assert all(a.default is None for a in overrides)


class TestOverrides:
    def _train_config(self, config_path, *flags):
        args = build_parser().parse_args([
            "train", "--config", str(config_path), "--edges", "e.npz",
            *flags,
        ])
        return _apply_overrides(
            ConfigSchema.from_json(config_path.read_text()), args
        )

    def test_every_train_flag_lands(self, workspace):
        _, config_path, _, _ = workspace
        config = self._train_config(
            config_path, "--checkpoint", "ckpt", "--trace", "t.json",
            "--pipeline", "--partition-cache-budget", "123",
            "--partition-compression", "int8", "--writeback-delta",
        )
        assert config.checkpoint_dir == "ckpt"
        assert config.trace_path == "t.json"
        assert config.pipeline is True
        assert config.partition_cache_budget == 123
        assert config.partition_compression == "int8"
        assert config.writeback_delta is True

    def test_file_values_survive_absent_flags(self, workspace):
        tmp_path, config_path, _, _ = workspace
        path = tmp_path / "piped.json"
        path.write_text(
            ConfigSchema.from_json(config_path.read_text())
            .replace(pipeline=True, partition_compression="fp16")
            .to_json()
        )
        config = self._train_config(path)
        assert config == ConfigSchema.from_json(path.read_text())
        assert config.pipeline is True
        assert config.partition_compression == "fp16"

    _INDEX_ARGS = [
        "--index", "ivfpq", "--num-lists", "4", "--nprobe", "2",
        "--pq-subvectors", "4", "--refine", "2",
    ]
    _INDEX_CONFIG = ServingConfig(
        index="ivfpq", num_lists=4, nprobe=2, pq_subvectors=4, refine=2,
    )

    def test_every_serve_flag_lands(self):
        args = build_parser().parse_args([
            "serve", "--snapshots", "snap", "--queries", "q.npy",
            *self._INDEX_ARGS, "--batch-size", "7", "--slow-batch", "0.5",
        ])
        assert _serving_config(args) == dataclasses.replace(
            self._INDEX_CONFIG, batch_size=7, slow_batch_seconds=0.5,
        )

    @pytest.mark.parametrize("command, extra", [
        ("query", ["--ids", "0"]),
        ("metrics", []),
    ])
    def test_every_index_flag_lands(self, command, extra):
        args = build_parser().parse_args([
            command, "--snapshots", "snap", *extra, *self._INDEX_ARGS,
        ])
        assert _serving_config(args) == self._INDEX_CONFIG

    def test_serving_section_survives_absent_flags(self, workspace):
        tmp_path, config_path, _, _ = workspace
        serving = ServingConfig(index="ivfpq", num_lists=4, nprobe=2)
        path = tmp_path / "serving.json"
        path.write_text(
            ConfigSchema.from_json(config_path.read_text())
            .replace(serving=serving).to_json()
        )
        args = build_parser().parse_args([
            "metrics", "--snapshots", "snap", "--config", str(path),
            "--nprobe", "3",
        ])
        assert _serving_config(args) == dataclasses.replace(serving, nprobe=3)

    def test_checkpoint_dir_from_config_file(self, workspace, capsys):
        """A partitioned config that names its checkpoint directory
        needs no --checkpoint."""
        tmp_path, config_path, train_path, _ = workspace
        ckpt = tmp_path / "from_file"
        path = tmp_path / "with_ckpt.json"
        path.write_text(
            ConfigSchema.from_json(config_path.read_text()).replace(
                entities={"node": EntitySchema(num_partitions=2)},
                num_epochs=1, checkpoint_dir=str(ckpt),
            ).to_json()
        )
        assert main([
            "train", "--config", str(path), "--edges", str(train_path),
        ]) == 0
        assert (ckpt / "metadata.json").exists()
        capsys.readouterr()


#: Config changes that route ``train`` to each trainer.
_TRAINERS = {
    "single": {},
    "distributed": {
        "entities": {"node": EntitySchema(num_partitions=4)},
        "num_machines": 2,
    },
}


class TestCheckpointWrites:
    @pytest.mark.parametrize("trainer", sorted(_TRAINERS))
    def test_one_write_per_epoch_with_configured_codec(
        self, workspace, capsys, monkeypatch, trainer
    ):
        """Either trainer checkpoints once per epoch with the configured
        codec, and the CLI writes nothing over it (it used to re-save
        the last epoch: with codec none after a single-machine run, as
        the only checkpoint of a cluster run)."""
        import repro.core.checkpointing as checkpointing

        writes = []
        save_files = checkpointing._save_model_files

        def recording(checkpoint_dir, model, entities, metadata, codec):
            writes.append((metadata["epoch"], codec))
            return save_files(checkpoint_dir, model, entities, metadata, codec)

        monkeypatch.setattr(checkpointing, "_save_model_files", recording)
        tmp_path, config_path, train_path, _ = workspace
        config = ConfigSchema.from_json(config_path.read_text()).replace(
            num_epochs=2, **_TRAINERS[trainer]
        )
        path = tmp_path / "run.json"
        path.write_text(config.to_json())
        ckpt = tmp_path / "model"
        assert main([
            "train", "--config", str(path), "--edges", str(train_path),
            "--checkpoint", str(ckpt), "--partition-compression", "int8",
        ]) == 0
        capsys.readouterr()
        assert writes == [(0, "int8"), (1, "int8")]
        part_files = sorted(ckpt.rglob("part-*.npz"))
        assert part_files
        for part in part_files:
            with np.load(part) as payload:
                assert str(payload["codec"]) == "int8"

    @pytest.mark.parametrize("trainer", sorted(_TRAINERS))
    def test_zero_epochs_writes_no_checkpoint(
        self, workspace, capsys, trainer
    ):
        """With no epoch to checkpoint, no run writes one (a partitioned
        single-machine run never did)."""
        tmp_path, config_path, train_path, _ = workspace
        path = tmp_path / "zero.json"
        path.write_text(
            ConfigSchema.from_json(config_path.read_text())
            .replace(num_epochs=0, **_TRAINERS[trainer]).to_json()
        )
        ckpt = tmp_path / "model"
        assert main([
            "train", "--config", str(path), "--edges", str(train_path),
            "--checkpoint", str(ckpt),
        ]) == 0
        assert "checkpoint written" not in capsys.readouterr().out
        assert not (ckpt / "metadata.json").exists()


class TestProgress:
    @pytest.mark.parametrize("trainer", sorted(_TRAINERS))
    def test_one_loss_line_per_epoch(self, workspace, capsys, trainer):
        """Both trainers run one epoch loop, so both print the same
        per-epoch progress line."""
        tmp_path, config_path, train_path, _ = workspace
        path = tmp_path / "run.json"
        path.write_text(
            ConfigSchema.from_json(config_path.read_text())
            .replace(num_epochs=3, **_TRAINERS[trainer]).to_json()
        )
        assert main([
            "train", "--config", str(path), "--edges", str(train_path),
            "--checkpoint", str(tmp_path / "model"),
        ]) == 0
        out = capsys.readouterr().out
        assert re.findall(
            r"^epoch (\d+): loss \d+\.\d{4} ", out, re.M
        ) == ["0", "1", "2"]
