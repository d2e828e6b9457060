"""SZx-style ultra-fast error-bounded lossy compressor.

This is a from-scratch numpy implementation of the algorithmic core of SZx
(Yu et al., HPDC'22), the compressor the paper customises for MPI collectives:

* the input is split into fixed-size blocks (128 values by default);
* each block stores its *medium value* ``(min + max) / 2``;
* a block whose radius ``(max - min) / 2`` is within the error bound is a
  **constant block** — only the medium value is stored (this is where the very
  high ratios on smooth scientific fields come from);
* a **non-constant block** additionally stores, for every value, the offset
  from the medium value quantised with step ``2 * error_bound`` and packed with
  the minimum number of bits required by the largest offset in the block.

The reconstruction error of every value is therefore bounded by the absolute
error bound (up to floating-point rounding when the caller's dtype is
float32).  The payload layout is self-describing::

    PayloadHeader  (magic b"SZX1", dtype, count, error_bound)
    u32  block_size
    u32  n_blocks
    u8   flags[ceil(n_blocks / 8)]      1 bit per block, 1 = constant
    f32  medium[n_blocks]
    u8   nbits[n_nonconstant]
    u8   payload[...]                   per non-constant block, byte aligned

The compressed size of each block is computable from the metadata alone, which
is what allows the pipelined variant (:mod:`repro.compression.pipelined`) to
keep a compact chunk index at the front of its buffer.

Batched core
------------
:meth:`SZxCompressor.compress_many` / :meth:`SZxCompressor.decompress_many`
are the only implementation; ``compress_bytes`` / ``decompress_bytes`` are
the batch of one.  A batch stacks the blocks of all its inputs (each input
padded to whole blocks on its own, with its own resolved error bound) into
one matrix and runs every pass — classification, quantisation, bit packing —
once over it, then cuts the shared metadata and payload region back into one
self-describing payload per input.  The bytes equal one call per input, so
PIPE-SZx encodes and decodes all chunks of a buffer in one pass while its
chunks stay independent on the wire.  At collective chunk sizes (a few
thousand values) the fixed per-call cost dominates, which is what batching
removes.

Width-class batched layout
--------------------------
The per-block payload region is written and read **by width class** rather
than block by block.  All non-constant blocks sharing the same bit width
``w`` form one class.  :func:`~repro.utils.bitpack.pack_width_classes` sorts
the blocks by width once, encodes each class with one
:func:`~repro.utils.bitpack.pack_uint_bits_rows` call (a fixed number of
numpy passes over an ``(n_class, block)`` matrix, each row padded to a whole
byte), and scatters every row to its cursor, precomputed from the ``nbits``
metadata (``cumsum`` of the per-block byte sizes), in one pass.
Decompression mirrors this: one gather pulls the rows in width order and
each class is decoded with one
:func:`~repro.utils.bitpack.unpack_uint_bits_rows` call.  Because every row
is byte-aligned exactly like an independent ``pack_uint_bits`` call, the
on-wire bytes are bit-for-bit identical to the historical per-block loop —
pinned by ``tests/compression/test_golden_payloads.py`` — while the hot path
runs a constant number of numpy passes per *distinct width* instead of a
Python iteration per *block* or per *bit*.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.compression.base import Compressor
from repro.compression.errors import CompressionError, DecompressionError, UnsupportedDataError
from repro.compression.header import PayloadHeader
from repro.utils.bitpack import (
    bit_length_u64,
    narrow_signed_dtype,
    pack_width_classes,
    row_nbytes,
    unpack_width_classes,
    zigzag_decode,
    zigzag_encode,
)
from repro.utils.validation import ensure_in, ensure_positive

__all__ = ["SZxCompressor", "DEFAULT_BLOCK_SIZE"]

_MAGIC = b"SZX1"
_BLOCK_HEADER = struct.Struct("<II")
DEFAULT_BLOCK_SIZE = 128

#: offsets larger than this many quantisation bins fall back to raw storage;
#: it guards the bit-length computation against degenerate bound/data combos.
_MAX_QUANT_BITS = 48


class SZxCompressor(Compressor):
    """Error-bounded SZx-style block compressor.

    Parameters
    ----------
    error_bound:
        Absolute error bound (``error_mode="abs"``) or relative bound as a
        fraction of the buffer value range (``error_mode="rel"``).
    block_size:
        Number of values per block (SZx uses 128 on CPUs).
    error_mode:
        ``"abs"`` (the mode used throughout the paper) or ``"rel"``.
    """

    name = "szx"
    error_bounded = True

    def __init__(
        self,
        error_bound: float = 1e-3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        error_mode: str = "abs",
    ) -> None:
        self.error_bound = ensure_positive(error_bound, "error_bound")
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        self.block_size = int(block_size)
        self.error_mode = ensure_in(error_mode, ("abs", "rel"), "error_mode")

    # ------------------------------------------------------------------ API

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "error_bounded": True,
            "error_bound": self.error_bound,
            "error_mode": self.error_mode,
            "block_size": self.block_size,
        }

    def effective_error_bound(self, data: np.ndarray) -> float:
        """Absolute error bound applied to ``data`` (resolves the ``rel`` mode)."""
        if self.error_mode == "abs":
            return self.error_bound
        if data.size == 0:
            return self.error_bound
        # subtract in python floats: numpy scalar arithmetic would emit a
        # RuntimeWarning when the range overflows, the guard below rejects it
        value_range = float(np.max(data)) - float(np.min(data))
        if not math.isfinite(value_range):
            raise UnsupportedDataError(
                "value range overflows float64; relative-bound SZx cannot "
                "resolve an absolute error bound for this data"
            )
        if value_range == 0.0:
            value_range = 1.0
        # a denormal value range can underflow the product to zero; clamp to
        # the smallest normal float so the quantiser's step stays finite (the
        # clamped bound exceeds the range, so every block is constant and the
        # reconstruction is trivially within bound)
        return max(self.error_bound * value_range, float(np.finfo(np.float64).tiny))

    # ----------------------------------------------------------- compression

    def compress_bytes(self, data: np.ndarray) -> bytes:
        return self.compress_many([data])[0]

    def decompress_bytes(self, payload: bytes) -> np.ndarray:
        return self.decompress_many([payload])[0]

    def compress_many(self, arrays: Sequence[np.ndarray]) -> List[bytes]:
        """Compress each array into its own payload in one pass over all blocks.

        The blocks of every input (each padded to whole blocks on its own)
        are stacked into one matrix, classified, quantised and bit-packed
        together; the result is byte-identical to one :meth:`compress_bytes`
        call per array.
        """
        block = self.block_size
        bounds = [self._resolved_bound(data) for data in arrays]
        n_blocks = [-(-data.size // block) for data in arrays]
        first_block = np.cumsum([0] + n_blocks)
        total_blocks = int(first_block[-1])
        padded = np.empty(total_blocks * block, dtype=np.float64)
        for data, begin, end in zip(arrays, first_block[:-1] * block, first_block[1:] * block):
            if data.size:
                padded[begin : begin + data.size] = data
                padded[begin + data.size : end] = data[-1]
        blocks = padded.reshape(total_blocks, block)

        mins = blocks.min(axis=1)
        maxs = blocks.max(axis=1)
        # The payload stores block anchors as float32; values beyond its range
        # would overflow the cast (and the float64 midpoint sum) mid-pack.
        largest = max(-float(mins.min()), float(maxs.max()), 0.0) if total_blocks else 0.0
        if largest > float(np.finfo(np.float32).max):
            raise UnsupportedDataError(
                "value magnitudes exceed the float32 anchor range of the SZx "
                f"payload format (max |value| ~ {largest:.3e})"
            )
        medium = ((mins + maxs) * 0.5).astype(np.float32)
        # Classify blocks against the float32 medium actually stored in the
        # payload, so the error bound holds for the reconstructed values too.
        offsets_all = blocks - medium.astype(np.float64)[:, None]
        # max(|row|) <= eb  <=>  row_max <= eb and row_min >= -eb (no abs pass)
        row_max = offsets_all.max(axis=1)
        row_min = offsets_all.min(axis=1)
        block_eb = np.repeat(np.asarray(bounds, dtype=np.float64), n_blocks)
        const_mask = (row_max <= block_eb) & (row_min >= -block_eb)

        # Quantise offsets from the (float32-rounded) medium value for all
        # non-constant blocks at once; the step of 2*eb keeps |error| <= eb.
        nonconst_idx = np.nonzero(~const_mask)[0]
        nbits_arr = np.zeros(0, dtype=np.int64)
        sizes = np.zeros(0, dtype=np.int64)
        region = b""
        if nonconst_idx.size:
            if nonconst_idx.size == total_blocks:
                offsets = offsets_all  # every block non-constant: mutate in place
            else:
                offsets = offsets_all[nonconst_idx]
            step = 2.0 * block_eb[nonconst_idx]
            # zigzag magnitude of a quant q is <= 2*|q| + 1; the division
            # bound (plus rounding margin) picks the narrowest safe dtype.
            # Reject quants beyond int64 before casting (the width check
            # below would catch them anyway, but only after the cast emitted
            # a RuntimeWarning and produced garbage)
            max_abs = np.maximum(row_max[nonconst_idx], -row_min[nonconst_idx])
            with np.errstate(over="ignore"):  # an infinite bound is rejected below
                quant_bounds = 2.0 * (max_abs / step + 1.0) + 1.0
            widest = int(np.argmax(quant_bounds))
            if not quant_bounds[widest] < 2.0**63:
                raise _too_wide(step[widest] / 2.0)
            np.divide(offsets, step[:, None], out=offsets)
            np.rint(offsets, out=offsets)
            quants = offsets.astype(narrow_signed_dtype(float(quant_bounds[widest])))
            encoded = zigzag_encode(quants)
            nbits_arr = bit_length_u64(encoded.max(axis=1))
            if int(nbits_arr.max()) > _MAX_QUANT_BITS:
                raise _too_wide(step[int(np.argmax(nbits_arr))] / 2.0)
            sizes = row_nbytes(block, nbits_arr)
            starts = np.cumsum(sizes) - sizes
            region = pack_width_classes(encoded, nbits_arr, starts, int(sizes.sum()))

        # split the shared metadata and payload region back per input: its
        # non-constant rows (and their bytes) are contiguous and in order
        first_row = np.concatenate(([0], np.cumsum(~const_mask)))[first_block]
        first_byte = np.concatenate(([0], np.cumsum(sizes)))[first_row]
        nbits_u8 = nbits_arr.astype(np.uint8)
        payloads = []
        for k, data in enumerate(arrays):
            b0, b1 = first_block[k], first_block[k + 1]
            r0, r1 = first_row[k], first_row[k + 1]
            header = PayloadHeader(magic=_MAGIC, dtype=data.dtype, count=data.size, param=bounds[k])
            payloads.append(
                b"".join(
                    (
                        header.pack(),
                        _BLOCK_HEADER.pack(block, n_blocks[k]),
                        np.packbits(const_mask[b0:b1]).tobytes(),
                        medium[b0:b1].tobytes(),
                        nbits_u8[r0:r1].tobytes(),
                        region[first_byte[k] : first_byte[k + 1]],
                    )
                )
            )
        return payloads

    def _resolved_bound(self, data: np.ndarray) -> float:
        eb = self.effective_error_bound(data)
        if not (eb > 0.0 and math.isfinite(eb)):
            raise CompressionError(
                f"resolved error bound {eb!r} is not a positive finite number "
                "(a relative bound underflowed on this data's value range)"
            )
        return eb

    # --------------------------------------------------------- decompression

    def decompress_many(self, payloads: Sequence[bytes]) -> List[np.ndarray]:
        """Reconstruct every payload, decoding all of their blocks in one pass.

        Payloads sharing a block size are decoded together (payloads of one
        codec instance always do); the arrays equal one
        :meth:`decompress_bytes` call per payload.
        """
        parsed = [_parse(payload) for payload in payloads]
        out: List[np.ndarray] = [None] * len(parsed)
        groups: Dict[int, List[int]] = {}
        for k, part in enumerate(parsed):
            groups.setdefault(part.block, []).append(k)
        for block, members in groups.items():
            parts = [parsed[k] for k in members]
            const_mask = np.concatenate([p.const_mask for p in parts])
            medium = np.concatenate([p.medium for p in parts]).astype(np.float64)
            decoded = np.empty((const_mask.size, block), dtype=np.float64)
            # Constant blocks: every value is the stored medium.
            decoded[const_mask] = medium[const_mask][:, None]
            nonconst_idx = np.nonzero(~const_mask)[0]
            if nonconst_idx.size:
                nbits_arr = np.concatenate([p.nbits for p in parts])
                sizes = row_nbytes(block, nbits_arr)
                starts = np.cumsum(sizes) - sizes
                region = np.frombuffer(b"".join(p.region for p in parts), dtype=np.uint8)
                # decode in the narrowest dtype the widest class needs, zigzag
                # branchlessly in that width, and only then widen to float64
                encoded = unpack_width_classes(region, nbits_arr, starts, block, dtype=None)
                quants = zigzag_decode(encoded).astype(np.float64)
                steps = [2.0 * p.header.param for p in parts]
                quants *= np.repeat(steps, [p.nbits.size for p in parts])[:, None]
                quants += medium[nonconst_idx][:, None]
                decoded[nonconst_idx] = quants
            flat = decoded.reshape(-1)
            begin = 0
            for k, part in zip(members, parts):
                out[k] = flat[begin : begin + part.header.count].astype(part.header.dtype)
                begin += part.const_mask.size * block
        return out


def _too_wide(eb: float) -> CompressionError:
    return CompressionError(
        "quantised offsets exceed the supported width; the error bound "
        f"({eb!r}) is too small relative to the data range"
    )


@dataclass(frozen=True)
class _Parsed:
    """The metadata and payload region of one SZx payload."""

    header: PayloadHeader
    block: int
    const_mask: np.ndarray
    medium: np.ndarray
    nbits: np.ndarray
    region: bytes


def _parse(payload: bytes) -> _Parsed:
    """Validate one SZx payload and slice out its metadata and data region."""
    header = PayloadHeader.unpack(payload, _MAGIC)
    offset = PayloadHeader.SIZE
    if len(payload) < offset + _BLOCK_HEADER.size:
        raise DecompressionError("truncated SZx payload (missing block header)")
    block, n_blocks = _BLOCK_HEADER.unpack_from(payload, offset)
    offset += _BLOCK_HEADER.size
    if header.count == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _Parsed(header, block, empty.astype(bool), empty.astype(np.float32), empty, b"")
    if block <= 0 or n_blocks != (header.count + block - 1) // block:
        raise DecompressionError("inconsistent SZx block metadata")

    flag_bytes = (n_blocks + 7) // 8
    end_flags = offset + flag_bytes
    end_medium = end_flags + 4 * n_blocks
    if len(payload) < end_medium:
        raise DecompressionError("truncated SZx payload (missing block metadata)")
    const_mask = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8, count=flag_bytes, offset=offset)
    )[:n_blocks].astype(bool)
    medium = np.frombuffer(payload, dtype=np.float32, count=n_blocks, offset=end_flags)

    n_nonconst = n_blocks - int(np.count_nonzero(const_mask))
    end_nbits = end_medium + n_nonconst
    if len(payload) < end_nbits:
        raise DecompressionError("truncated SZx payload (missing bit widths)")
    nbits_arr = np.frombuffer(
        payload, dtype=np.uint8, count=n_nonconst, offset=end_medium
    ).astype(np.int64)
    total = int(row_nbytes(block, nbits_arr).sum())
    if len(payload) < end_nbits + total:
        raise DecompressionError("truncated SZx payload (missing block data)")
    region = payload[end_nbits : end_nbits + total]
    return _Parsed(header, block, const_mask, medium, nbits_arr, region)
