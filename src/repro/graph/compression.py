"""Compressed partition transport: quantised codecs + dirty-row deltas.

Every byte a partition moves — to the partition server or to a swap
file — is wall-clock spent. This module supplies the two byte-saving
levers (in the spirit of the gradient / parameter compression
literature in PAPERS.md):

- **Partition codecs** — whole-partition encodings used on the wire
  (partition server) and on disk (swap / checkpoint files):

  - ``none`` — fp32 passthrough, the bit-exact baseline and test
    oracle;
  - ``fp16`` — embeddings stored as IEEE half precision (~2x);
  - ``int8`` — symmetric per-row int8 quantisation of the embeddings
    with one fp32 scale per row (~4x). The scale is ``max|row| / 127``,
    so decode error is bounded by ``scale / 2`` per element and re-
    encoding an unchanged decoded row is idempotent (the row maximum
    maps back onto +/-127 exactly).

  Row-Adagrad state (one float per row, ``1/d`` of the embedding bytes)
  always stays fp32: it is a monotonically growing sum of squares whose
  quantisation would bias every future learning-rate, for negligible
  byte savings.

- **Dirty-row deltas** — training a bucket touches a subset of a
  partition's rows (edge endpoints plus sampled negatives), so the
  writeback path can push ``(row_indices, rows)`` instead of the whole
  partition. A delta is only valid against the exact version it was
  computed from; the partition server patches its encoded rows into
  the stored payload under the per-key version check (every codec
  encodes rows independently, so nothing is decoded) and a stale delta
  degrades to a full push.

Encoded partitions travel as a flat ``dict[str, np.ndarray]`` payload
(the "wire format"): stored as-is, one record per array, in a partition
file (:func:`repro.graph.storage.write_arrays`), picklable across the
multiprocessing manager boundary, and byte-countable with
:func:`payload_nbytes`. Payloads are self-describing via the codec name
stored under :data:`CODEC_KEY`, so readers never need out-of-band codec
configuration.
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np

from repro import telemetry

__all__ = [
    "CODEC_NAMES",
    "CODEC_KEY",
    "DELTA_ROWS_KEY",
    "PartitionCodec",
    "get_codec",
    "payload_nbytes",
    "payload_codec_name",
    "payload_shape",
    "encode_delta",
]

#: registry keys, in preference order of fidelity
CODEC_NAMES = ("none", "fp16", "int8")

#: payload key holding the codec name (a 0-d unicode array, stored as
#: its own record in a partition file)
CODEC_KEY = "codec"

#: payload key holding a delta's row indices (int64)
DELTA_ROWS_KEY = "delta_rows"

_STATE_KEY = "optim_state"


def _as_f32(arr: np.ndarray, copy: bool = False) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float32)
    if copy and out is arr:
        out = arr.copy()
    return out


class PartitionCodec(abc.ABC):
    """Encode/decode one partition (embeddings + row-Adagrad state).

    ``decode(encode(x))`` must return freshly allocated fp32 arrays
    (callers rely on no-aliasing transfer semantics), with shapes and
    dtypes identical to the fp32 originals — the staging-cache validate
    guard rejects anything else.
    """

    name: str

    def encode(
        self, embeddings: np.ndarray, optim_state: np.ndarray
    ) -> "dict[str, np.ndarray]":
        """Encode to a wire payload (always includes the codec marker).

        Template method: concrete codecs implement :meth:`_encode`; the
        wrapper adds a telemetry span (inert unless tracing is armed).
        """
        with telemetry.span(
            "codec.encode", cat="codec", codec=self.name,
            rows=len(embeddings),
        ):
            return self._encode(embeddings, optim_state)

    def decode(
        self, payload: "Mapping[str, np.ndarray]"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Decode a payload back to fresh fp32 ``(embeddings, state)``."""
        with telemetry.span("codec.decode", cat="codec", codec=self.name):
            return self._decode(payload)

    @abc.abstractmethod
    def _encode(
        self, embeddings: np.ndarray, optim_state: np.ndarray
    ) -> "dict[str, np.ndarray]":
        """Codec-specific encode body."""

    @abc.abstractmethod
    def _decode(
        self, payload: "Mapping[str, np.ndarray]"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Codec-specific decode body."""

    def _marker(self) -> np.ndarray:
        return np.array(self.name)


class NoneCodec(PartitionCodec):
    """fp32 passthrough — the bit-exact baseline."""

    name = "none"

    def _encode(self, embeddings, optim_state):
        return {
            CODEC_KEY: self._marker(),
            "embeddings": _as_f32(embeddings, copy=True),
            _STATE_KEY: _as_f32(optim_state, copy=True),
        }

    def _decode(self, payload):
        return (
            _as_f32(payload["embeddings"], copy=True),
            _as_f32(payload[_STATE_KEY], copy=True),
        )


class Fp16Codec(PartitionCodec):
    """Embeddings as IEEE half precision; state stays fp32 (~2x)."""

    name = "fp16"

    def _encode(self, embeddings, optim_state):
        return {
            CODEC_KEY: self._marker(),
            "embeddings_fp16": _as_f32(embeddings).astype(np.float16),
            _STATE_KEY: _as_f32(optim_state, copy=True),
        }

    def _decode(self, payload):
        return (
            payload["embeddings_fp16"].astype(np.float32),
            _as_f32(payload[_STATE_KEY], copy=True),
        )


class Int8Codec(PartitionCodec):
    """Symmetric per-row int8 quantisation with fp32 scales (~4x).

    ``scale[i] = max|row_i| / 127``; all-zero rows get scale 0 and
    decode back to exact zeros. Decode error is bounded by ``scale/2``
    per element, and rows whose decoded values are re-encoded unchanged
    quantise back to the same codes (the row maximum sits exactly on
    +/-127), so repeated delta round-trips do not walk untouched rows.
    """

    name = "int8"

    def _encode(self, embeddings, optim_state):
        emb = _as_f32(embeddings)
        if emb.size:
            scales = (np.abs(emb).max(axis=1) / 127.0).astype(np.float32)
        else:
            scales = np.zeros(len(emb), dtype=np.float32)
        safe = np.where(scales > 0, scales, 1.0).astype(np.float32)
        codes = np.clip(
            np.rint(emb / safe[:, None]), -127, 127
        ).astype(np.int8)
        return {
            CODEC_KEY: self._marker(),
            "embeddings_q8": codes,
            "scales": scales,
            _STATE_KEY: _as_f32(optim_state, copy=True),
        }

    def _decode(self, payload):
        codes = payload["embeddings_q8"]
        scales = _as_f32(payload["scales"])
        emb = codes.astype(np.float32) * scales[:, None]
        return emb, _as_f32(payload[_STATE_KEY], copy=True)


_CODECS: "dict[str, PartitionCodec]" = {
    c.name: c for c in (NoneCodec(), Fp16Codec(), Int8Codec())
}


def get_codec(codec: "str | PartitionCodec") -> PartitionCodec:
    """Resolve a codec name (or pass a codec instance through)."""
    if isinstance(codec, PartitionCodec):
        return codec
    try:
        return _CODECS[codec]
    except KeyError:
        raise ValueError(
            f"unknown partition codec {codec!r}; "
            f"expected one of {CODEC_NAMES}"
        ) from None


def payload_nbytes(payload: "Mapping[str, np.ndarray]") -> int:
    """Bytes a payload occupies on the wire / on disk (codec marker and
    array metadata are noise next to the row data and are ignored)."""
    return sum(
        np.asarray(arr).nbytes
        for key, arr in payload.items()
        if key != CODEC_KEY
    )


def payload_shape(payload: "Mapping[str, np.ndarray]") -> "tuple[int, int]":
    """``(num_rows, dim)`` of the row block a payload encodes — the
    shape of its one 2-D array."""
    return next(np.shape(a) for a in payload.values() if np.ndim(a) == 2)


def payload_codec_name(payload: "Mapping[str, np.ndarray]") -> str:
    """Codec name of a payload; every codec writes it under
    :data:`CODEC_KEY`, so a payload without one is not ours."""
    if CODEC_KEY not in payload:
        raise ValueError(f"payload has no {CODEC_KEY!r} marker")
    return str(np.asarray(payload[CODEC_KEY])[()])


# ----------------------------------------------------------------------
# Dirty-row delta codec
# ----------------------------------------------------------------------


def encode_delta(
    codec: "str | PartitionCodec",
    row_indices: np.ndarray,
    emb_rows: np.ndarray,
    state_rows: np.ndarray,
) -> "dict[str, np.ndarray]":
    """Encode a ``(row_indices, rows)`` writeback delta.

    The row block is compressed with the same partition codec as full
    transfers; the indices ride along as int64.
    """
    rows = np.ascontiguousarray(row_indices, dtype=np.int64)
    if rows.ndim != 1:
        raise ValueError("delta row indices must be 1-D")
    if len(rows) != len(emb_rows) or len(rows) != len(state_rows):
        raise ValueError("delta rows and arrays must have matching length")
    payload = get_codec(codec).encode(emb_rows, state_rows)
    payload[DELTA_ROWS_KEY] = rows
    return payload
