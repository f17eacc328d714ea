"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import load_edges, main, save_edges
from repro.config import ConfigSchema, EntitySchema, RelationSchema
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
