"""Bit-level packing helpers used by the compressors.

The SZx-style codec stores, for each non-constant block, the residuals of the
block values around the block mean truncated to the number of bits actually
required.  These helpers pack/unpack arrays of small unsigned integers into a
dense bitstream (most-significant bit first within each value), fully
vectorised with numpy.

Three granularities are provided:

* :func:`pack_uint_bits` / :func:`unpack_uint_bits` encode a single flat
  array — one codec block at a time;
* :func:`pack_uint_bits_rows` / :func:`unpack_uint_bits_rows` encode an
  ``(n_rows, count)`` matrix, each row padded to a whole byte exactly like
  an independent :func:`pack_uint_bits` call, in a fixed number of numpy
  passes whatever the width: the values' big-endian bytes are expanded to
  one byte per bit (``unpackbits``), the low ``nbits`` bits of every value
  are kept by one strided copy, and one ``packbits`` packs them (decoding
  runs the same passes backwards);
* :func:`pack_width_classes` / :func:`unpack_width_classes` handle a matrix
  whose rows use *different* widths: rows are sorted by width once, each
  width class is a contiguous slice encoded with one row-packer call, and
  one scatter (gather) moves every row to (from) its byte cursor.  This is
  the **width-class batch** primitive of the vectorised codec data plane —
  the produced bytes are bit-for-bit what a per-row Python loop would emit,
  but the hot path runs a constant number of numpy passes per *distinct
  width* instead of an iteration per *row* or per *bit*.

The module also hosts the zigzag signed<->unsigned mapping shared by the SZx
and ZFP codecs (previously duplicated in both).  All hot-path helpers work in
the narrowest integer dtype that holds the requested width, which roughly
halves the memory traffic of the typical (< 16 bit) codec payload.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "required_bits_unsigned",
    "bit_length_u64",
    "zigzag_encode",
    "zigzag_decode",
    "pack_uint_bits",
    "unpack_uint_bits",
    "pack_uint_bits_rows",
    "unpack_uint_bits_rows",
    "pack_width_classes",
    "unpack_width_classes",
    "row_nbytes",
    "narrow_uint_dtype",
    "narrow_signed_dtype",
]


def required_bits_unsigned(max_value: int) -> int:
    """Number of bits needed to represent unsigned integers up to ``max_value``.

    ``max_value == 0`` requires 0 bits (all values are zero and nothing needs to
    be stored).
    """
    if max_value < 0:
        raise ValueError(f"max_value must be >= 0, got {max_value}")
    return int(max_value).bit_length()


def bit_length_u64(values: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for unsigned arrays (exact for all 64 bits).

    Deliberately avoids any float round-trip: ``float64`` cannot represent
    integers above ``2**53`` exactly, so a log/frexp-based bit length would
    misreport values adjacent to a power of two.
    """
    v = np.asarray(values, dtype=np.uint64).copy()
    out = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        step = np.uint64(shift)
        mask = v >= (np.uint64(1) << step)
        out[mask] += shift
        v[mask] >>= step
    out[v > 0] += 1
    return out


def zigzag_encode(q: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned ones (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).

    Branchless (``(q << 1) ^ (q >> sign_bit)``) and dtype-preserving: a signed
    input of width ``k`` yields the matching ``uint{k}`` output (any other
    input is first cast to ``int64``).
    """
    q = np.asarray(q)
    if q.dtype.kind != "i":
        q = q.astype(np.int64)
    sign_shift = q.dtype.type(q.dtype.itemsize * 8 - 1)
    return ((q << q.dtype.type(1)) ^ (q >> sign_shift)).view(f"u{q.dtype.itemsize}")


def zigzag_decode(u: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`.

    Branchless (``(u >> 1) ^ -(u & 1)``) and dtype-preserving: an unsigned
    input of width ``k`` yields the matching ``int{k}`` output (any other
    input is first cast to ``uint64``).
    """
    u = np.asarray(u)
    if u.dtype.kind != "u":
        u = u.astype(np.uint64)
    one = u.dtype.type(1)
    zero = u.dtype.type(0)
    return ((u >> one) ^ (zero - (u & one))).view(f"i{u.dtype.itemsize}")


def row_nbytes(count: int, nbits) -> "int | np.ndarray":
    """Bytes one ``count``-value row occupies at ``nbits`` bits per value.

    ``nbits`` may be a scalar or an array (vectorised cursor precomputation).
    """
    return (count * nbits + 7) // 8


def narrow_uint_dtype(nbits: int) -> np.dtype:
    """Smallest unsigned dtype holding ``nbits``-bit values."""
    if nbits <= 8:
        return np.dtype(np.uint8)
    if nbits <= 16:
        return np.dtype(np.uint16)
    if nbits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


def narrow_signed_dtype(encoded_bound: float) -> np.dtype:
    """Narrowest signed dtype whose zigzag encoding surely holds ``encoded_bound``.

    ``encoded_bound`` is an upper bound (with margin) on the zigzag-encoded
    magnitude of the quantised values; a narrow dtype is only chosen when the
    bound provably fits, so codecs produce bit-identical payloads to an int64
    path.  Non-finite bounds fall back to int64 — the historical behaviour of
    a plain ``astype(int64)`` cast.
    """
    if not np.isfinite(encoded_bound):
        return np.dtype(np.int64)
    if encoded_bound < 2.0**15:
        return np.dtype(np.int16)
    if encoded_bound < 2.0**31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _check_nbits(nbits: int) -> int:
    if nbits < 0 or nbits > 64:
        raise ValueError(f"nbits must be in [0, 64], got {nbits}")
    return int(nbits)


def _check_fits(values: np.ndarray, nbits: int) -> None:
    width = values.dtype.itemsize * 8
    if nbits < width and values.size:
        limit = values.dtype.type(1) << values.dtype.type(nbits)
        vmax = values.max()
        if vmax >= limit:
            raise ValueError(f"values do not fit in {nbits} bits (max={int(vmax)})")


def pack_uint_bits(values: np.ndarray, nbits: int) -> bytes:
    """Pack an array of unsigned integers using ``nbits`` bits per value.

    Values must fit in ``nbits`` bits.  Returns a byte string whose length is
    ``ceil(len(values) * nbits / 8)``.  ``nbits == 0`` returns ``b""``.
    """
    nbits = _check_nbits(nbits)
    values = np.asarray(values)
    if values.dtype.kind != "u":
        values = values.astype(np.uint64)
    if nbits == 0 or values.size == 0:
        return b""
    return pack_uint_bits_rows(values.reshape(1, -1), nbits)


def unpack_uint_bits(buffer: bytes, count: int, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_uint_bits`.

    Returns a ``uint64`` array with ``count`` entries decoded from ``buffer``.
    """
    nbits = _check_nbits(nbits)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if nbits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    return unpack_uint_bits_rows(buffer, 1, count, nbits).reshape(count)


def pack_uint_bits_rows(values: np.ndarray, nbits: int) -> bytes:
    """Pack an ``(n_rows, count)`` matrix row by row in one vectorised pass.

    Every row is packed MSB-first and padded to a whole byte independently, so
    the result equals ``b"".join(pack_uint_bits(row, nbits) for row in values)``
    — each row occupies exactly ``row_nbytes(count, nbits)`` bytes, which is
    what lets callers scatter/gather rows at precomputed cursors.
    """
    nbits = _check_nbits(nbits)
    values = np.asarray(values)
    if values.dtype.kind != "u":
        values = values.astype(np.uint64)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D (n_rows, count), got shape {values.shape}")
    n_rows, count = values.shape
    if nbits == 0 or n_rows == 0 or count == 0:
        return b""
    _check_fits(values, nbits)
    if nbits % 8 == 0:
        # byte-aligned widths: the packed row is just the big-endian tail
        # bytes of every value — no bit expansion needed
        nb = nbits // 8
        storage = max(1 << (nb - 1).bit_length(), 1)  # 1, 2, 4 or 8 bytes
        be = values.astype(f">u{storage}")
        tail = be.view(np.uint8).reshape(n_rows, count, storage)[:, :, storage - nb :]
        return np.ascontiguousarray(tail).tobytes()
    # unpack the big-endian bytes of every value, keep its low ``nbits``
    # bits, and pack the kept bits back (one packbits per row when the rows
    # do not end on a byte boundary)
    width = narrow_uint_dtype(nbits).itemsize * 8
    bits = np.unpackbits(values.astype(f">u{width // 8}").view(np.uint8).reshape(-1))
    kept = _low_bits(bits, n_rows * count, width, nbits).copy().view(np.uint8)
    if (count * nbits) % 8:
        return np.packbits(kept.reshape(n_rows, count * nbits), axis=1).tobytes()
    return np.packbits(kept).tobytes()


def unpack_uint_bits_rows(
    buffer, n_rows: int, count: int, nbits: int, dtype: Optional[np.dtype] = np.uint64
) -> np.ndarray:
    """Inverse of :func:`pack_uint_bits_rows`.

    Decodes ``n_rows`` byte-aligned rows of ``count`` values each from
    ``buffer`` (any buffer protocol object) and returns an array of shape
    ``(n_rows, count)``.  ``dtype`` selects the result dtype — ``None`` means
    the narrowest unsigned dtype that holds ``nbits`` bits (hot paths use this
    to keep downstream passes narrow).
    """
    nbits = _check_nbits(nbits)
    if n_rows < 0 or count < 0:
        raise ValueError(f"n_rows and count must be >= 0, got {n_rows}, {count}")
    dt = narrow_uint_dtype(nbits) if dtype is None else np.dtype(dtype)
    if nbits == 0 or n_rows == 0 or count == 0:
        return np.zeros((n_rows, count), dtype=dt)
    per_row = int(row_nbytes(count, nbits))
    raw = np.frombuffer(buffer, dtype=np.uint8)
    if raw.size < n_rows * per_row:
        raise ValueError(
            f"buffer too small: need {n_rows * per_row} bytes, got {raw.size}"
        )
    raw = raw[: n_rows * per_row].reshape(n_rows, per_row)
    if nbits % 8 == 0:
        nb = nbits // 8
        storage = max(1 << (nb - 1).bit_length(), 1)
        full = np.zeros((n_rows, count, storage), dtype=np.uint8)
        full[:, :, storage - nb :] = raw.reshape(n_rows, count, nb)
        return full.view(f">u{storage}").reshape(n_rows, count).astype(dt, copy=False)
    # the inverse passes: unpack the rows' bits, right-align every value's
    # ``nbits`` bits in a zeroed big-endian word, and pack the words
    if (count * nbits) % 8:
        bits = np.unpackbits(raw, axis=1, count=count * nbits)
    else:
        bits = np.unpackbits(raw.reshape(-1))
    width = narrow_uint_dtype(nbits).itemsize * 8
    words = np.zeros(n_rows * count * width, dtype=np.uint8)
    _low_bits(words, n_rows * count, width, nbits)[...] = bits.reshape(-1).view(f"V{nbits}")
    values = np.packbits(words).view(f">u{width // 8}").reshape(n_rows, count)
    return values.astype(dt, copy=False)


def _low_bits(bits: np.ndarray, n_values: int, width: int, nbits: int) -> np.ndarray:
    """View the low ``nbits`` of every ``width``-bit value in ``bits``.

    ``bits`` holds one ``0/1`` byte per bit, ``width`` per value, MSB first.
    Each value's low bits become one ``V{nbits}`` item, so copying them out
    of (or into) the view is a single strided pass over ``n_values`` items.
    """
    return np.ndarray(
        (n_values,), dtype=f"V{nbits}", buffer=bits, offset=width - nbits, strides=(width,)
    )


# ------------------------------------------------------------- width classes


def pack_width_classes(
    values: np.ndarray,
    nbits: np.ndarray,
    starts: np.ndarray,
    total_nbytes: int,
    out: Optional[np.ndarray] = None,
):
    """Scatter-encode ``(n_rows, count)`` values grouped by per-row bit width.

    ``nbits[i]`` is row ``i``'s width and ``starts[i]`` its byte cursor in the
    output region (``total_nbytes`` long, cursors typically a ``cumsum`` of
    :func:`row_nbytes`).  Rows are sorted by width once, so every width class
    is a contiguous slice packed by one :func:`pack_uint_bits_rows` call, and
    one scatter puts all rows at their cursors: the region is byte-identical
    to packing row by row in order.

    Returns the region as ``bytes``; when ``out`` (a ``uint8`` array of at
    least ``total_nbytes``) is given, rows are scattered into it instead and
    ``out`` is returned — this lets codecs interleave several fields (e.g.
    ZFP's DC and detail planes) in one region.
    """
    values = np.asarray(values)
    region = np.zeros(total_nbytes, dtype=np.uint8) if out is None else out
    order, classes, row_starts, sizes = _class_layout(nbits, values.shape[1])
    if classes:
        ordered = values[order]
        packed = b"".join(
            pack_uint_bits_rows(ordered[first:stop], width) for width, first, stop in classes
        )
        region[_cursor_index(starts[order], row_starts, sizes)] = np.frombuffer(
            packed, dtype=np.uint8
        )
    return region if out is not None else region.tobytes()


def unpack_width_classes(
    region: np.ndarray,
    nbits: np.ndarray,
    starts: np.ndarray,
    count: int,
    dtype: Optional[np.dtype] = np.uint64,
) -> np.ndarray:
    """Gather-decode the inverse of :func:`pack_width_classes`.

    Returns a matrix of shape ``(len(nbits), count)`` (zero rows for
    zero-width entries).  ``dtype=None`` selects the narrowest unsigned dtype
    holding the widest class present.  One gather pulls every row in width
    order, each class is decoded by one :func:`unpack_uint_bits_rows` call,
    and one scatter restores the row order.
    """
    region = np.asarray(region, dtype=np.uint8)
    nbits = np.asarray(nbits)
    widest = int(nbits.max()) if nbits.size else 0
    dt = narrow_uint_dtype(widest) if dtype is None else np.dtype(dtype)
    order, classes, row_starts, sizes = _class_layout(nbits, count)
    ordered = np.zeros((nbits.size, count), dtype=dt)
    if classes:
        stream = region[_cursor_index(starts[order], row_starts, sizes)]
        for width, first, stop in classes:
            ordered[first:stop] = unpack_uint_bits_rows(
                stream[row_starts[first] :], stop - first, count, width, dtype=dt
            )
    out = np.empty_like(ordered)
    out[order] = ordered
    return out


def _class_layout(nbits: np.ndarray, count: int):
    """Sort rows by width: ``(order, classes, row_starts, sizes)``.

    ``order`` lists the rows in width order (stable), ``classes`` holds
    ``(width, first, stop)`` of every nonzero width's run in that order, and
    ``row_starts`` / ``sizes`` are the byte cursors and lengths of the rows
    packed back to back in that order.
    """
    nbits = np.asarray(nbits, dtype=np.int64)
    order = np.argsort(nbits, kind="stable")
    ordered = nbits[order]
    classes = []
    if count and ordered.size:
        cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), ordered.size]
        classes = [
            (int(ordered[first]), first, stop)
            for first, stop in zip(cuts[:-1], cuts[1:])
            if ordered[first]
        ]
    sizes = row_nbytes(count, ordered)
    return order, classes, np.cumsum(sizes) - sizes, sizes


def _cursor_index(starts: np.ndarray, row_starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Region index of every byte of rows packed back to back at ``row_starts``.

    Row ``k`` occupies ``sizes[k]`` bytes at ``row_starts[k]`` of the packed
    stream and belongs at ``starts[k]`` in the region.
    """
    shift = np.repeat(np.asarray(starts, dtype=np.int64) - row_starts, sizes)
    return shift + np.arange(shift.size)
