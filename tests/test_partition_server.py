"""Tests for the sharded partition server."""

import threading

import numpy as np
import pytest

from repro.distributed.partition_server import (
    CodecDriftError,
    PartitionServer,
    PartitionServerStorage,
    PayloadError,
)
from repro.graph import compression
from repro.graph.storage import StorageError

from tests.helpers import counts, get_arrays, put_arrays, put_delta_arrays


def _arrays(seed=0, n=10, d=4):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n, d)).astype(np.float32),
        rng.random(n).astype(np.float32),
    )


class TestPartitionServer:
    def test_put_get_roundtrip(self):
        ps = PartitionServer(2)
        emb, state = _arrays()
        put_arrays(ps, "node", 3, emb, state)
        emb2, state2 = get_arrays(ps, "node", 3)
        np.testing.assert_array_equal(emb, emb2)
        np.testing.assert_array_equal(state, state2)

    def test_get_missing_returns_none(self):
        ps = PartitionServer(2)
        assert get_arrays(ps, "node", 0) is None

    def test_copies_isolate_callers(self):
        """Mutating a fetched partition must not affect the server."""
        ps = PartitionServer(1)
        emb, state = _arrays()
        put_arrays(ps, "node", 0, emb, state)
        got, _ = get_arrays(ps, "node", 0)
        got += 100.0
        again, _ = get_arrays(ps, "node", 0)
        np.testing.assert_array_equal(again, emb)

    def test_put_copies_input(self):
        ps = PartitionServer(1)
        emb, state = _arrays()
        put_arrays(ps, "node", 0, emb, state)
        emb += 50.0
        stored, _ = get_arrays(ps, "node", 0)
        assert not np.allclose(stored, emb)

    def test_sharding_by_partition_index(self):
        ps = PartitionServer(4)
        for p in range(8):
            put_arrays(ps, "node", p, *_arrays(p, n=2))
        sizes = ps.shard_nbytes()
        assert len(sizes) == 4
        assert all(s > 0 for s in sizes)
        # Each shard hosts exactly 2 of the 8 partitions.
        assert len(set(sizes)) == 1

    def test_keys_sorted(self):
        ps = PartitionServer(2)
        put_arrays(ps, "b", 1, *_arrays(n=1))
        put_arrays(ps, "a", 0, *_arrays(n=1))
        assert ps.keys() == [("a", 0), ("b", 1)]

    def test_has(self):
        ps = PartitionServer(1)
        assert not ps.has("node", 0)
        put_arrays(ps, "node", 0, *_arrays())
        assert ps.has("node", 0)

    def test_stats_accounting(self):
        ps = PartitionServer(1)
        emb, state = _arrays()
        put_arrays(ps, "node", 0, emb, state)
        get_arrays(ps, "node", 0)
        assert ps.stats.puts == 1 and ps.stats.gets == 1
        assert ps.stats.bytes_received == emb.nbytes + state.nbytes
        assert ps.stats.bytes_sent == emb.nbytes + state.nbytes

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            PartitionServer(0)

    def test_concurrent_put_get_different_partitions(self):
        ps = PartitionServer(4)
        errors = []

        def worker(m):
            try:
                for i in range(20):
                    part = m * 20 + i
                    emb, state = _arrays(part, n=5)
                    put_arrays(ps, "node", part, emb, state)
                    got, _ = get_arrays(ps, "node", part)
                    np.testing.assert_array_equal(got, emb)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(m,)) for m in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(ps.keys()) == 80

    def test_overwrite_updates(self):
        ps = PartitionServer(1)
        emb1, state = _arrays(1)
        emb2, _ = _arrays(2)
        put_arrays(ps, "node", 0, emb1, state)
        put_arrays(ps, "node", 0, emb2, state)
        got, _ = get_arrays(ps, "node", 0)
        np.testing.assert_array_equal(got, emb2)

    def test_miss_counts_as_get(self):
        """A fetch that returns None is still a request the server
        served — gets and misses must both count it."""
        ps = PartitionServer(1)
        assert get_arrays(ps, "node", 0) is None
        put_arrays(ps, "node", 0, *_arrays())
        get_arrays(ps, "node", 0)
        assert ps.stats.gets == 2
        assert ps.stats.misses == 1


class TestVersioning:
    def test_put_bumps_version(self):
        ps = PartitionServer(2)
        assert ps.version("node", 1) == 0
        assert put_arrays(ps, "node", 1, *_arrays()) == 1
        assert put_arrays(ps, "node", 1, *_arrays(1)) == 2
        assert ps.version("node", 1) == 2

    def test_get_versioned(self):
        ps = PartitionServer(1)
        assert ps.get_versioned("node", 0) is None
        emb, state = _arrays()
        put_arrays(ps, "node", 0, emb, state)
        payload, version = ps.get_versioned("node", 0)
        got_emb, got_state = compression.get_codec("none").decode(payload)
        np.testing.assert_array_equal(got_emb, emb)
        assert version == 1

    def test_versions_independent_per_key(self):
        ps = PartitionServer(2)
        put_arrays(ps, "a", 0, *_arrays(n=2))
        put_arrays(ps, "a", 0, *_arrays(n=2))
        put_arrays(ps, "b", 0, *_arrays(n=2))
        assert ps.version("a", 0) == 2
        assert ps.version("b", 0) == 1


class TestPartitionServerStorage:
    def test_roundtrip_and_missing(self):
        store = PartitionServerStorage(PartitionServer(2))
        emb, state = _arrays()
        store.save("node", 1, emb, state)
        got_emb, got_state = store.load("node", 1)
        np.testing.assert_array_equal(got_emb, emb)
        np.testing.assert_array_equal(got_state, state)
        with pytest.raises(StorageError, match="has no"):
            store.load("node", 0)

    def test_is_current_tracks_foreign_puts(self):
        """A staged copy goes stale the moment another machine pushes a
        newer version of the partition."""
        server = PartitionServer(1)
        mine = PartitionServerStorage(server)
        theirs = PartitionServerStorage(server)
        mine.save("node", 0, *_arrays(1))
        assert mine.is_current("node", 0)
        theirs.save("node", 0, *_arrays(2))
        assert not mine.is_current("node", 0)
        assert theirs.is_current("node", 0)
        mine.load("node", 0)  # re-fetch refreshes the observed version
        assert mine.is_current("node", 0)

    def test_is_current_false_when_never_observed(self):
        store = PartitionServerStorage(PartitionServer(1))
        assert not store.is_current("node", 0)

    def test_io_accounting(self):
        store = PartitionServerStorage(PartitionServer(1))
        store.save("node", 0, *_arrays())
        store.load("node", 0)
        c = counts(store.metrics)
        assert c["backend.saves"] == 1 and c["backend.loads"] == 1
        assert store.io_seconds.value > 0


class TestCompressedServer:
    @pytest.mark.parametrize("codec", ["fp16", "int8"])
    def test_roundtrip_within_codec_tolerance(self, codec):
        ps = PartitionServer(2, codec=codec)
        emb, state = _arrays(n=50, d=16)
        put_arrays(ps, "node", 0, emb, state)
        got_emb, got_state = get_arrays(ps, "node", 0)
        np.testing.assert_allclose(got_emb, emb, atol=0.05, rtol=1e-3)
        # Optimizer state is never quantised.
        np.testing.assert_array_equal(got_state, state)

    def test_codec_name(self):
        assert PartitionServer(1).codec_name() == "none"
        assert PartitionServer(1, codec="int8").codec_name() == "int8"

    def test_wire_bytes_are_encoded_bytes(self):
        emb, state = _arrays(n=100, d=32)
        raw = emb.nbytes + state.nbytes
        ps = PartitionServer(1, codec="int8")
        put_arrays(ps, "node", 0, emb, state)
        encoded = compression.wire_nbytes("int8", 100, 32)
        assert ps.stats.bytes_received == encoded
        assert ps.stats.bytes_saved == raw - encoded
        get_arrays(ps, "node", 0)
        assert ps.stats.bytes_sent == encoded
        assert ps.stats.bytes_saved == 2 * (raw - encoded)

    def test_hosted_bytes_shrink(self):
        emb, state = _arrays(n=500, d=64)
        plain = PartitionServer(1)
        packed = PartitionServer(1, codec="int8")
        put_arrays(plain, "node", 0, emb, state)
        put_arrays(packed, "node", 0, emb, state)
        assert sum(packed.shard_nbytes()) < 0.35 * sum(plain.shard_nbytes())

    def test_uncompressed_path_bit_identical(self):
        """codec='none' must be byte-for-byte the legacy fp32 path."""
        ps = PartitionServer(1, codec="none")
        emb, state = _arrays(n=30, d=8)
        put_arrays(ps, "node", 0, emb, state)
        got_emb, got_state = get_arrays(ps, "node", 0)
        np.testing.assert_array_equal(got_emb, emb)
        np.testing.assert_array_equal(got_state, state)
        assert ps.stats.bytes_saved == 0


class TestPutDelta:
    def test_applies_under_current_version(self):
        ps = PartitionServer(1)
        emb, state = _arrays(n=20, d=4)
        v1 = put_arrays(ps, "node", 0, emb, state)
        rows = np.array([2, 5], dtype=np.int64)
        new_emb = np.full((2, 4), 7.0, dtype=np.float32)
        new_state = np.full(2, 3.0, dtype=np.float32)
        v2 = put_delta_arrays(
                ps, "node", 0, rows, new_emb, new_state, v1)
        assert v2 == v1 + 1
        got_emb, got_state = get_arrays(ps, "node", 0)
        np.testing.assert_array_equal(got_emb[rows], new_emb)
        np.testing.assert_array_equal(got_state[rows], new_state)
        untouched = np.setdiff1d(np.arange(20), rows)
        np.testing.assert_array_equal(got_emb[untouched], emb[untouched])
        assert ps.stats.delta_puts == 1

    def test_stale_delta_rejected(self):
        ps = PartitionServer(1)
        emb, state = _arrays(n=10, d=4)
        v1 = put_arrays(ps, "node", 0, emb, state)
        put_arrays(ps, "node", 0, *_arrays(9, n=10))  # another machine pushes
        rows = np.array([0], dtype=np.int64)
        assert (
            put_delta_arrays(
                ps, "node", 0, rows, emb[rows], state[rows], v1)
            is None
        )
        assert ps.stats.delta_stale == 1
        assert ps.stats.delta_puts == 0

    def test_delta_against_missing_key_rejected(self):
        ps = PartitionServer(1)
        rows = np.array([0], dtype=np.int64)
        assert (
            put_delta_arrays(
                ps, "node", 0, rows,
                np.zeros((1, 4), np.float32), np.zeros(1, np.float32), 0,
            )
            is None
        )
        assert ps.stats.delta_stale == 1

    def test_delta_charges_only_delta_bytes(self):
        ps = PartitionServer(1)
        emb, state = _arrays(n=100, d=16)
        v1 = put_arrays(ps, "node", 0, emb, state)
        before = ps.stats.bytes_received
        rows = np.array([1, 2, 3], dtype=np.int64)
        put_delta_arrays(
                ps, "node", 0, rows, emb[rows], state[rows], v1)
        assert (
            ps.stats.bytes_received - before
            == compression.wire_nbytes("none", 3, 16) + 8 * 3
        )

    def test_delta_bit_identical_under_none_codec(self):
        """Untouched rows pass through an encode→decode→encode cycle
        under codec none — they must come back bit-exact."""
        ps = PartitionServer(1)
        emb, state = _arrays(n=50, d=8)
        v1 = put_arrays(ps, "node", 0, emb, state)
        rows = np.array([10], dtype=np.int64)
        put_delta_arrays(
                ps, "node", 0, rows,
            np.ones((1, 8), np.float32), np.ones(1, np.float32), v1,
        )
        got_emb, got_state = get_arrays(ps, "node", 0)
        untouched = np.setdiff1d(np.arange(50), rows)
        np.testing.assert_array_equal(got_emb[untouched], emb[untouched])
        np.testing.assert_array_equal(got_state[untouched], state[untouched])

    def test_delta_stable_under_int8(self):
        """Repeated deltas against an int8 server must not drift
        untouched rows (requantisation is idempotent)."""
        ps = PartitionServer(1, codec="int8")
        emb, state = _arrays(n=30, d=8)
        v = put_arrays(ps, "node", 0, emb, state)
        baseline, _ = get_arrays(ps, "node", 0)
        for i in range(5):
            rows = np.array([i], dtype=np.int64)
            v = put_delta_arrays(
                ps, "node", 0, rows,
                np.full((1, 8), float(i), np.float32),
                np.zeros(1, np.float32), v,
            )
        got, _ = get_arrays(ps, "node", 0)
        untouched = np.arange(5, 30)
        np.testing.assert_array_equal(got[untouched], baseline[untouched])


class TestDeltaWriteback:
    def _pair(self, codec="none"):
        server = PartitionServer(1, codec=codec)
        return server, PartitionServerStorage(server, use_delta=True)

    def test_partial_dirty_rows_push_delta(self):
        server, store = self._pair()
        emb, state = _arrays(n=40, d=4)
        store.save("node", 0, emb, state)  # first push is always full
        emb2 = emb.copy()
        dirty = np.array([3, 17], dtype=np.int64)
        emb2[dirty] += 1.0
        store.save("node", 0, emb2, state, dirty_rows=dirty)
        assert counts(store.metrics)["backend.delta_pushes"] == 1
        got, _ = store.load("node", 0)
        np.testing.assert_array_equal(got, emb2)

    def test_zero_dirty_rows_skip_transfer(self):
        server, store = self._pair()
        emb, state = _arrays(n=10, d=4)
        store.save("node", 0, emb, state)
        sent_before = counts(store.metrics)["backend.wire_bytes_sent"]
        store.save(
            "node", 0, emb, state, dirty_rows=np.array([], dtype=np.int64)
        )
        assert counts(store.metrics)["backend.delta_skips"] == 1
        assert counts(store.metrics)["backend.wire_bytes_sent"] == sent_before
        assert server.stats.puts == 1  # no second transfer reached the server

    def test_zero_dirty_rows_with_stale_baseline_full_push(self):
        """'Nothing changed locally' is not enough — if another machine
        moved the server copy, skipping would *lose our rows*; must push."""
        server, store = self._pair()
        other = PartitionServerStorage(server)
        emb, state = _arrays(n=10, d=4)
        store.save("node", 0, emb, state)
        other.save("node", 0, *_arrays(5, n=10))
        store.save(
            "node", 0, emb, state, dirty_rows=np.array([], dtype=np.int64)
        )
        assert counts(store.metrics)["backend.delta_skips"] == 0
        got, _ = store.load("node", 0)
        np.testing.assert_array_equal(got, emb)

    def test_stale_delta_degrades_to_full_push(self):
        server, store = self._pair()
        other = PartitionServerStorage(server)
        emb, state = _arrays(n=20, d=4)
        store.save("node", 0, emb, state)
        other.save("node", 0, *_arrays(5, n=20))  # invalidates our baseline
        emb2 = emb.copy()
        dirty = np.array([1], dtype=np.int64)
        emb2[dirty] += 1.0
        store.save("node", 0, emb2, state, dirty_rows=dirty)
        assert counts(store.metrics)["backend.delta_fallbacks"] == 1
        assert counts(store.metrics)["backend.delta_pushes"] == 0
        got, _ = store.load("node", 0)
        np.testing.assert_array_equal(got, emb2)
        assert server.stats.delta_stale == 1

    def test_all_rows_dirty_full_push(self):
        server, store = self._pair()
        emb, state = _arrays(n=8, d=4)
        store.save("node", 0, emb, state)
        store.save(
            "node", 0, emb, state, dirty_rows=np.arange(8, dtype=np.int64)
        )
        assert counts(store.metrics)["backend.delta_pushes"] == 0
        assert server.stats.puts == 2

    def test_delta_disabled_always_full_push(self):
        server = PartitionServer(1)
        store = PartitionServerStorage(server)  # use_delta=False
        emb, state = _arrays(n=8, d=4)
        store.save("node", 0, emb, state)
        store.save(
            "node", 0, emb, state, dirty_rows=np.array([1], dtype=np.int64)
        )
        assert server.stats.puts == 2
        assert counts(store.metrics)["backend.delta_pushes"] == 0

    def test_adapter_wire_counters(self):
        server, store = self._pair(codec="int8")
        emb, state = _arrays(n=100, d=16)
        store.save("node", 0, emb, state)
        full = compression.wire_nbytes("int8", 100, 16)
        raw = compression.wire_nbytes("none", 100, 16)
        assert counts(store.metrics)["backend.wire_bytes_sent"] == full
        assert counts(store.metrics)["backend.wire_bytes_saved"] == raw - full
        dirty = np.array([1, 2], dtype=np.int64)
        emb2 = emb.copy()
        emb2[dirty] += 1.0
        store.save("node", 0, emb2, state, dirty_rows=dirty)
        assert counts(store.metrics)["backend.delta_pushes"] == 1
        assert (
            counts(store.metrics)["backend.wire_bytes_sent"]
            == full + compression.wire_nbytes("int8", 2, 16) + 8 * 2
        )
        store.load("node", 0)
        assert counts(store.metrics)["backend.wire_bytes_received"] == full


class TestCodecDriftGuard:
    """The adapter decodes what the server ships; whatever the decode
    gives (a codec bug, a foreign writer's payload) is guarded before
    it can reach the staging cache."""

    def test_drifted_dtype_raises(self, monkeypatch):
        server = PartitionServer(1)
        store = PartitionServerStorage(server)
        put_arrays(server, "node", 0, *_arrays())
        codec = compression.get_codec("none")
        decode = type(codec)._decode

        def bad_decode(self, payload):
            emb, state = decode(self, payload)
            return emb.astype(np.float16), state

        monkeypatch.setattr(type(codec), "_decode", bad_decode)
        with pytest.raises(CodecDriftError, match="float16"):
            store.load("node", 0)

    def test_drifted_state_shape_raises(self):
        server = PartitionServer(1)
        store = PartitionServerStorage(server)
        put_arrays(server, "node", 0, *_arrays(n=10))

        def bad_get_versioned(entity_type, part):
            payload, v = PartitionServer.get_versioned(
                server, entity_type, part
            )
            return {**payload, "optim_state": payload["optim_state"][:-1]}, v

        store.server = type(
            "Proxy", (), {
                "get_versioned": staticmethod(bad_get_versioned),
                "codec_name": staticmethod(server.codec_name),
            },
        )()
        with pytest.raises(CodecDriftError, match="optimizer"):
            store.load("node", 0)

    def test_foreign_codec_payload_raises(self):
        """The adapter speaks the server's codec; a payload marked with
        another one is drift, not something to decode on trust."""
        store = PartitionServerStorage(PartitionServer(1, codec="fp16"))
        store.save("node", 0, *_arrays())
        store._codec = compression.get_codec("int8")
        with pytest.raises(CodecDriftError, match="fp16"):
            store.load("node", 0)

    def test_drift_is_not_a_storage_error(self):
        """StorageError means 'partition absent, initialise it' to every
        consumer; drift must never be masked as that."""
        assert not issubclass(CodecDriftError, StorageError)


class TestTrustBoundary:
    """The server stores what it is handed, so it checks it first —
    and a rejected call leaves store, versions and counters alone."""

    def _server(self, codec="int8", n=20, d=8):
        ps = PartitionServer(1, codec=codec)
        emb, state = _arrays(n=n, d=d)
        version = put_arrays(ps, "node", 0, emb, state)
        return ps, emb, state, version

    def _unchanged(self, ps, emb_before, version):
        assert ps.version("node", 0) == version
        np.testing.assert_array_equal(
            get_arrays(ps, "node", 0)[0], emb_before
        )
        assert ps.stats.puts == 1 and ps.stats.delta_puts == 0

    def test_put_rejects_foreign_codec(self):
        ps, emb, state, version = self._server()
        before = get_arrays(ps, "node", 0)[0]
        foreign = compression.get_codec("fp16").encode(emb, state)
        with pytest.raises(PayloadError, match="int8"):
            ps.put("node", 0, foreign)
        unmarked = compression.get_codec("int8").encode(emb, state)
        del unmarked[compression.CODEC_KEY]
        with pytest.raises(PayloadError):
            ps.put("node", 0, unmarked)
        self._unchanged(ps, before, version)

    def test_put_rejects_disagreeing_row_counts(self):
        ps, emb, state, version = self._server()
        before = get_arrays(ps, "node", 0)[0]
        payload = compression.get_codec("int8").encode(emb, state)
        payload["scales"] = payload["scales"][:-1]
        with pytest.raises(PayloadError, match="row counts"):
            ps.put("node", 0, payload)
        self._unchanged(ps, before, version)
        assert ps.shard_nbytes() == [
            compression.wire_nbytes("int8", *emb.shape)
        ]

    @pytest.mark.parametrize("bad_row", [-1, 20, 10**6])
    def test_delta_rejects_rows_outside_the_partition(self, bad_row):
        """A negative index used to wrap silently onto the last rows."""
        ps, emb, state, version = self._server()
        before = get_arrays(ps, "node", 0)[0]
        rows = np.array([3, bad_row], dtype=np.int64)
        with pytest.raises(PayloadError, match="out of range"):
            put_delta_arrays(
                ps, "node", 0, rows, emb[:2] + 1.0, state[:2], version
            )
        self._unchanged(ps, before, version)

    def test_delta_rejects_arrays_not_matching_its_rows(self):
        ps, emb, state, version = self._server()
        before = get_arrays(ps, "node", 0)[0]
        delta = compression.encode_delta(
            "int8", np.array([1, 2, 3]), emb[:3], state[:3]
        )
        delta[compression.DELTA_ROWS_KEY] = np.array([1, 2], dtype=np.int64)
        with pytest.raises(PayloadError, match="row counts"):
            ps.put_delta("node", 0, delta, version)
        del delta[compression.DELTA_ROWS_KEY]
        with pytest.raises(PayloadError, match="row indices"):
            ps.put_delta("node", 0, delta, version)
        self._unchanged(ps, before, version)

    def test_delta_rejects_foreign_codec_and_shape(self):
        ps, emb, state, version = self._server()
        before = get_arrays(ps, "node", 0)[0]
        rows = np.array([1, 2], dtype=np.int64)
        with pytest.raises(PayloadError, match="int8"):
            ps.put_delta(
                "node", 0,
                compression.encode_delta("none", rows, emb[:2], state[:2]),
                version,
            )
        narrow = compression.encode_delta(
            "int8", rows, emb[:2, :4], state[:2]
        )
        with pytest.raises(PayloadError, match="stored partition"):
            ps.put_delta("node", 0, narrow, version)
        self._unchanged(ps, before, version)

    def test_put_rejects_a_scalar_where_rows_belong(self):
        ps, emb, state, version = self._server()
        before = get_arrays(ps, "node", 0)[0]
        payload = compression.get_codec("int8").encode(emb, state)
        payload["scales"] = np.float32(1.0)
        with pytest.raises(PayloadError, match="row counts"):
            ps.put("node", 0, payload)
        self._unchanged(ps, before, version)

    def test_payload_error_is_typed(self):
        assert issubclass(PayloadError, ValueError)
        assert not issubclass(PayloadError, StorageError)


class TestHostedBytes:
    def test_running_count_tracks_overwrites_and_deltas(self):
        """``shard_nbytes`` is a running sum, not a walk: it must still
        equal the walk after overwrites with another size and deltas."""
        ps = PartitionServer(2, codec="int8")
        put_arrays(ps, "node", 0, *_arrays(n=30, d=8))
        v = put_arrays(ps, "node", 0, *_arrays(1, n=50, d=8))  # grows
        put_arrays(ps, "node", 1, *_arrays(2, n=10, d=8))
        put_arrays(ps, "node", 2, *_arrays(3, n=7, d=8))
        emb, state = _arrays(4, n=5, d=8)
        assert put_delta_arrays(
            ps, "node", 0, np.arange(5), emb, state, v
        ) == v + 1
        walked = [0, 0]
        for entity_type, part in ps.keys():
            payload, _ = ps.get_versioned(entity_type, part)
            walked[part % 2] += compression.payload_nbytes(payload)
        assert ps.shard_nbytes() == walked
        assert walked[0] == compression.wire_nbytes("int8", 57, 8)

    def test_reader_never_sees_a_torn_payload(self):
        """``put_delta`` is copy-on-write: a payload reference handed
        out before the delta is bit-for-bit what it was."""
        ps = PartitionServer(1, codec="int8")
        emb, state = _arrays(n=40, d=8)
        v = put_arrays(ps, "node", 0, emb, state)
        held, _ = ps.get_versioned("node", 0)
        snapshot = {k: np.array(a, copy=True) for k, a in held.items()}
        put_delta_arrays(
            ps, "node", 0, np.arange(40)[::2], emb[::2] * 3.0, state[::2], v
        )
        for k, a in held.items():
            np.testing.assert_array_equal(a, snapshot[k])
        now, _ = ps.get_versioned("node", 0)
        assert not np.array_equal(now["scales"], held["scales"])
