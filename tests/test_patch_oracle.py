"""The patch oracle: a delta patched into the *encoded* partition is
what decode → scatter → re-encode gives.

``PartitionServer.put_delta`` never decodes: it copies the stored
encoded arrays and writes the delta's encoded rows over theirs. The
reference it replaced — decode the stored partition, decode the delta,
scatter the rows, encode the whole partition again — lives on here
(``decode_delta`` and ``apply_delta_rows`` had no caller left in
``src/``) and is compared payload-bitwise.

It is bitwise for ``int8`` too because a scale the encoder produced,
``s = fl(max / 127)``, survives decode → encode: ``fl(fl(127 * s) / 127)
== s`` (not true of an arbitrary float32 — one in ~80 comes back an ulp
off — which is why the payloads here all come out of ``encode``, as
they do in the program). What the patch adds is the second property:
rows no delta names keep the *same bytes* however many deltas land,
with no rounding argument needed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.partition_server import PartitionServer
from repro.graph.compression import (
    CODEC_KEY,
    CODEC_NAMES,
    DELTA_ROWS_KEY,
    encode_delta,
    get_codec,
    payload_codec_name,
)
from tests.helpers import put_arrays


# -- the reference (moved here from repro.graph.compression) -----------


def decode_delta(payload):
    """Decode a delta payload to ``(row_indices, emb_rows, state_rows)``."""
    rows = np.ascontiguousarray(payload[DELTA_ROWS_KEY], dtype=np.int64)
    body = {k: v for k, v in payload.items() if k != DELTA_ROWS_KEY}
    emb_rows, state_rows = get_codec(payload_codec_name(body)).decode(body)
    return rows, emb_rows, state_rows


def apply_delta_rows(embeddings, optim_state, row_indices, emb_rows, state_rows):
    """Scatter decoded delta rows into full fp32 arrays, in place."""
    embeddings[row_indices] = emb_rows
    optim_state[row_indices] = state_rows


def reference_put_delta(codec, stored, delta):
    """What the server did before: decode, scatter, re-encode."""
    emb, state = codec.decode(stored)
    apply_delta_rows(emb, state, *decode_delta(delta))
    return codec.encode(emb, state)


# -- generated cases ---------------------------------------------------


def _partition(rng, n, d, zero_share):
    emb = (
        rng.standard_normal((n, d)) * 10.0 ** rng.integers(-4, 4, (n, 1))
    ).astype(np.float32)
    emb[rng.random(n) < zero_share] = 0.0  # all-zero rows: scale 0
    return emb, rng.random(n).astype(np.float32)


def _delta_rows(rng, n, kind):
    """Duplicate-free and unsorted; ``kind`` picks none, all or some."""
    count = {"empty": 0, "every": n}.get(kind, int(rng.integers(0, n + 1)))
    return rng.permutation(n)[:count].astype(np.int64)


def _assert_same_bytes(got, want):
    assert got.keys() == want.keys()
    for key in got.keys() - {CODEC_KEY}:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key
    assert payload_codec_name(got) == payload_codec_name(want)


case = st.tuples(
    st.sampled_from(CODEC_NAMES),
    st.integers(0, 2**32 - 1),              # seed
    st.integers(1, 40), st.integers(1, 9),  # rows, dim
    st.sampled_from(["empty", "every", "some", "some"]),
    st.sampled_from([0.0, 0.3, 1.0]),       # share of all-zero rows
)


class TestPatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(case)
    def test_patch_is_decode_scatter_encode(self, params):
        name, seed, n, d, kind, zero_share = params
        rng = np.random.default_rng(seed)
        codec = get_codec(name)
        server = PartitionServer(1, codec=name)
        version = put_arrays(
            server, "node", 0, *_partition(rng, n, d, zero_share)
        )
        stored, _ = server.get_versioned("node", 0)
        rows = _delta_rows(rng, n, kind)
        new_emb, new_state = _partition(rng, len(rows), d, zero_share)
        delta = encode_delta(name, rows, new_emb, new_state)

        assert server.put_delta("node", 0, delta, version) == version + 1
        patched, _ = server.get_versioned("node", 0)
        want = reference_put_delta(codec, stored, delta)

        _assert_same_bytes(patched, want)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(CODEC_NAMES), st.integers(0, 2**32 - 1),
        st.integers(2, 60), st.integers(1, 9),
    )
    def test_untouched_rows_keep_their_bytes_over_50_deltas(
        self, name, seed, n, d
    ):
        rng = np.random.default_rng(seed)
        server = PartitionServer(1, codec=name)
        version = put_arrays(server, "node", 0, *_partition(rng, n, d, 0.2))
        original, _ = server.get_versioned("node", 0)
        # Rows the deltas may write; the rest must never change.
        writable = rng.permutation(n)[: int(rng.integers(1, n))]
        expect = {k: np.array(a) for k, a in original.items() if k != CODEC_KEY}
        for _ in range(50):
            rows = rng.permutation(writable)[
                : int(rng.integers(0, len(writable) + 1))
            ].astype(np.int64)
            delta = encode_delta(
                name, rows, *_partition(rng, len(rows), d, 0.2)
            )
            version = server.put_delta("node", 0, delta, version)
            for key in expect:
                expect[key][rows] = delta[key]
        final, _ = server.get_versioned("node", 0)
        assert version == 51
        _assert_same_bytes(final, {**expect, CODEC_KEY: original[CODEC_KEY]})
        untouched = np.setdiff1d(np.arange(n), writable)
        for key in expect:
            assert (
                final[key][untouched].tobytes()
                == original[key][untouched].tobytes()
            ), key


class TestReference:
    """The reference is what ``tests/test_compression.py`` checked
    before it moved; these keep it honest. (Its range check did not
    move: the server's own is in ``tests/test_partition_server.py``,
    ``TestTrustBoundary``.)"""

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_delta_roundtrip(self, name):
        rng = np.random.default_rng(0)
        emb, state = _partition(rng, 60, 8, 0.0)
        rows = np.array([3, 7, 41], dtype=np.int64)
        delta = encode_delta(name, rows, emb[rows], state[rows])
        got_rows, got_emb, got_state = decode_delta(delta)
        np.testing.assert_array_equal(got_rows, rows)
        if name == "none":
            np.testing.assert_array_equal(got_emb, emb[rows])
        np.testing.assert_array_equal(got_state, state[rows])

    def test_apply_delta_rows(self):
        rng = np.random.default_rng(0)
        emb, state = _partition(rng, 10, 4, 0.0)
        base_emb, base_state = emb.copy(), state.copy()
        rows = np.array([1, 8])
        new_rows = np.full((2, 4), 9.0, dtype=np.float32)
        new_state = np.full(2, 5.0, dtype=np.float32)
        apply_delta_rows(emb, state, rows, new_rows, new_state)
        np.testing.assert_array_equal(emb[rows], new_rows)
        np.testing.assert_array_equal(state[rows], new_state)
        untouched = np.setdiff1d(np.arange(10), rows)
        np.testing.assert_array_equal(emb[untouched], base_emb[untouched])
        np.testing.assert_array_equal(state[untouched], base_state[untouched])
