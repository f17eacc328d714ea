"""Tests for partition codecs and dirty-row delta encoding."""

import numpy as np
import pytest

from repro.graph import compression
from repro.graph.compression import (
    CODEC_NAMES,
    encode_delta,
    get_codec,
    payload_codec_name,
    payload_nbytes,
    payload_shape,
)
from repro.graph.storage import (
    PartitionedEmbeddingStorage,
    StorageError,
    atomic_write,
    write_arrays,
)


def _partition(seed=0, n=50, d=16):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, d)).astype(np.float32)
    state = rng.random(n).astype(np.float32)
    return emb, state


class TestCodecRoundtrips:
    def test_none_is_bit_exact(self):
        emb, state = _partition()
        codec = get_codec("none")
        out_emb, out_state = codec.decode(codec.encode(emb, state))
        np.testing.assert_array_equal(out_emb, emb)
        np.testing.assert_array_equal(out_state, state)

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_decode_allocates_fresh_f32_arrays(self, name):
        """Transfer semantics: decoded arrays must never alias the
        encoder's inputs, and must come back float32 in the original
        shapes."""
        emb, state = _partition()
        codec = get_codec(name)
        out_emb, out_state = codec.decode(codec.encode(emb, state))
        assert out_emb.dtype == np.float32 and out_state.dtype == np.float32
        assert out_emb.shape == emb.shape
        assert out_state.shape == state.shape
        out_emb += 100.0
        out_state += 100.0
        assert not np.allclose(out_emb, emb)
        assert not np.allclose(out_state, state)

    def test_fp16_error_bound(self):
        emb, state = _partition(n=200, d=32)
        codec = get_codec("fp16")
        out_emb, out_state = codec.decode(codec.encode(emb, state))
        # Half precision: ~2^-11 relative error.
        np.testing.assert_allclose(out_emb, emb, rtol=1e-3, atol=1e-6)
        # Optimizer state always stays fp32 — exact.
        np.testing.assert_array_equal(out_state, state)

    def test_int8_error_bound(self):
        emb, state = _partition(n=200, d=32)
        codec = get_codec("int8")
        out_emb, out_state = codec.decode(codec.encode(emb, state))
        # Symmetric per-row quantisation: error <= scale/2 per element.
        scales = np.abs(emb).max(axis=1) / 127.0
        assert np.all(np.abs(out_emb - emb) <= scales[:, None] / 2 + 1e-7)
        np.testing.assert_array_equal(out_state, state)

    def test_int8_zero_rows_stay_zero(self):
        emb = np.zeros((4, 8), dtype=np.float32)
        emb[2] = 1.0  # one non-zero row among zeros
        state = np.zeros(4, dtype=np.float32)
        codec = get_codec("int8")
        out_emb, _ = codec.decode(codec.encode(emb, state))
        np.testing.assert_array_equal(out_emb[0], 0.0)
        np.testing.assert_array_equal(out_emb[2], emb[2])

    def test_int8_requantisation_is_idempotent(self):
        """Decoded rows re-encoded unchanged must quantise back to the
        same values — repeated delta round-trips must not walk
        untouched rows."""
        emb, state = _partition(n=100, d=16)
        codec = get_codec("int8")
        once = codec.decode(codec.encode(emb, state))[0]
        twice = codec.decode(codec.encode(once, state))[0]
        np.testing.assert_array_equal(once, twice)

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_empty_partition(self, name):
        emb = np.zeros((0, 8), dtype=np.float32)
        state = np.zeros(0, dtype=np.float32)
        codec = get_codec(name)
        out_emb, out_state = codec.decode(codec.encode(emb, state))
        assert out_emb.shape == (0, 8)
        assert out_state.shape == (0,)

    def test_unknown_codec_raises(self):
        with pytest.raises(ValueError, match="unknown partition codec"):
            get_codec("zstd")

    def test_codec_instance_passthrough(self):
        codec = get_codec("fp16")
        assert get_codec(codec) is codec


class TestPayloads:
    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_payloads_are_self_describing(self, name):
        emb, state = _partition()
        payload = get_codec(name).encode(emb, state)
        assert payload_codec_name(payload) == name

    def test_payload_without_marker_is_rejected(self):
        """Every codec marks its payloads; bare embeddings/optim_state
        arrays are foreign bytes, not an implicit fp32 payload."""
        emb, state = _partition()
        with pytest.raises(ValueError, match="marker"):
            payload_codec_name({"embeddings": emb, "optim_state": state})

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_payload_nbytes_matches_analytic_wire_size(self, name):
        emb, state = _partition(n=37, d=12)
        payload = get_codec(name).encode(emb, state)
        # Per row: the embedding, int8's fp32 scale, the fp32 state.
        row = {"none": 4 * 12, "fp16": 2 * 12, "int8": 12 + 4}[name] + 4
        assert payload_nbytes(payload) == 37 * row

    def test_compression_ratios_ordered(self):
        emb, state = _partition(n=1000, d=64)
        sizes = {
            n: payload_nbytes(get_codec(n).encode(emb, state))
            for n in CODEC_NAMES
        }
        assert sizes["none"] > sizes["fp16"] > sizes["int8"]
        assert sizes["none"] == 1000 * (64 * 4 + 4)


class TestDeltas:
    """``decode_delta`` / ``apply_delta_rows`` — the decode → scatter
    reference the partition server no longer runs — and their tests
    moved to ``tests/test_patch_oracle.py``."""

    def test_delta_wire_size(self):
        emb, state = _partition(n=60, d=8)
        rows = np.arange(5, dtype=np.int64)
        delta = encode_delta("int8", rows, emb[rows], state[rows])
        assert payload_nbytes(delta) == 5 * (8 + 4 + 4) + 8 * 5

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_payload_shape_of_partitions_and_deltas(self, name):
        emb, state = _partition(n=37, d=12)
        assert payload_shape(get_codec(name).encode(emb, state)) == (37, 12)
        rows = np.array([4, 2], dtype=np.int64)
        delta = encode_delta(name, rows, emb[rows], state[rows])
        assert payload_shape(delta) == (2, 12)

    def test_encode_delta_length_mismatch(self):
        emb, state = _partition(n=4, d=2)
        with pytest.raises(ValueError, match="matching length"):
            encode_delta("none", np.array([0, 1]), emb[:1], state[:1])

    def test_encode_delta_rejects_2d_indices(self):
        emb, state = _partition(n=4, d=2)
        with pytest.raises(ValueError, match="1-D"):
            encode_delta(
                "none", np.array([[0], [1]]), emb[:2], state[:2]
            )


class TestCompressedDiskStorage:
    """The same codecs shrink single-machine swap / checkpoint files."""

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_roundtrip(self, tmp_path, name):
        store = PartitionedEmbeddingStorage(tmp_path, codec=name)
        emb, state = _partition(n=100, d=32)
        store.save("node", 0, emb, state)
        got_emb, got_state = store.load("node", 0)
        assert got_emb.dtype == np.float32
        if name == "none":
            np.testing.assert_array_equal(got_emb, emb)
        else:
            np.testing.assert_allclose(got_emb, emb, atol=0.02)
        np.testing.assert_array_equal(got_state, state)

    def test_files_shrink(self, tmp_path):
        emb, state = _partition(n=2000, d=64)
        sizes = {}
        for name in CODEC_NAMES:
            store = PartitionedEmbeddingStorage(tmp_path / name, codec=name)
            store.save("node", 0, emb, state)
            sizes[name] = store.nbytes()
        assert sizes["fp16"] < 0.6 * sizes["none"]
        assert sizes["int8"] < 0.35 * sizes["none"]

    def test_reads_are_codec_agnostic(self, tmp_path):
        """Files are self-describing: a store configured with one codec
        reads files written with another."""
        emb, state = _partition()
        writer = PartitionedEmbeddingStorage(tmp_path, codec="fp16")
        writer.save("node", 0, emb, state)
        reader = PartitionedEmbeddingStorage(tmp_path, codec="int8")
        got_emb, _ = reader.load("node", 0)
        np.testing.assert_allclose(got_emb, emb, rtol=1e-3, atol=1e-6)

    def test_unmarked_file_is_corrupt(self, tmp_path):
        """A file without the codec marker record is reported as
        corrupt, not decoded on the guess that it is fp32."""
        emb, state = _partition()
        store = PartitionedEmbeddingStorage(tmp_path, codec="int8")
        atomic_write(store.path("node", 0), write_arrays,
                     {"embeddings": emb, "optim_state": state})
        with pytest.raises(StorageError, match="corrupt partition file"):
            store.load("node", 0)

    def test_unknown_codec_rejected_at_construction(self, tmp_path):
        with pytest.raises(ValueError, match="unknown partition codec"):
            PartitionedEmbeddingStorage(tmp_path, codec="gzip")

    def test_missing_still_raises_storage_error(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path, codec="int8")
        with pytest.raises(StorageError, match="no stored partition"):
            store.load("node", 3)

    def test_compression_module_reexports(self):
        assert compression.CODEC_NAMES == ("none", "fp16", "int8")
