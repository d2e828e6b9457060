"""Compression adapter: the layer between the collectives and the codecs.

This corresponds to the "Compression Adapter" box in the paper's architecture
(Figure 1).  The collectives never talk to a codec directly; they hand flat
arrays to the adapter and get back :class:`CompressedMessage` objects that
bundle the payload with everything the simulation needs:

* the real compressed bytes (what actually travels and is decompressed, so
  data fidelity is preserved end to end),
* the *virtual* sizes used by the network/cost models (real sizes scaled by
  the configured ``size_multiplier``),
* the achieved compression ratio (feeds the ratio-dependent throughput model
  and the harness's ratio statistics), and
* the modelled compression/decompression durations.

A message several ranks decompress (a forwarded C-Allgather block, the
C-Bcast buffer) is decoded by the codec once: the adapter parks the array on
the message for the remaining consumers, gives each its own copy, and drops
it after the last one.  Messages only one rank decodes (the reduce-scatter
partial sums) are never parked, so no decoded array outlives its use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ccoll.config import CCollConfig
from repro.collectives.context import CollectiveContext
from repro.compression.base import Compressor, check_compressible
from repro.metrics.ratios import CompressionStats

__all__ = ["CompressedMessage", "CompressionAdapter", "check_finite"]


@dataclass(frozen=True)
class CompressedMessage:
    """A compressed chunk ready to be sent through the simulated network."""

    payload: bytes
    original_count: int
    original_dtype: np.dtype
    real_nbytes: int
    virtual_nbytes: int
    original_virtual_nbytes: int
    ratio: float
    #: the decode several consumers share: ``[array, consumers still to
    #: serve]`` while some are left, empty otherwise (see
    #: :meth:`CompressionAdapter.decompress`)
    shared_decode: List = field(default_factory=list, compare=False, repr=False)

    @property
    def nbytes(self) -> int:
        """Size used by the network model (the virtual compressed size)."""
        return self.virtual_nbytes


class CompressionAdapter:
    """Compresses/decompresses chunks and accounts their modelled cost.

    Parameters
    ----------
    codec:
        The error-bounded codec (or fixed-rate baseline codec) to use.
    ctx:
        Collective context providing the cost model and virtual-size scaling.
    """

    def __init__(self, codec: Compressor, ctx: CollectiveContext) -> None:
        self.codec = codec
        self.ctx = ctx
        self.stats = CompressionStats()

    # ------------------------------------------------------------- compress

    def compress(self, data: np.ndarray) -> CompressedMessage:
        """Compress ``data`` and return the message plus bookkeeping."""
        data = np.ascontiguousarray(data).reshape(-1)
        buf = self.codec.compress(data)
        real = buf.nbytes
        original_virtual = self.ctx.vbytes(data)
        virtual = max(1, self.ctx.vbytes_raw(real))
        self.stats.record(buf.original_nbytes, real)
        return CompressedMessage(
            payload=buf.payload,
            original_count=data.size,
            original_dtype=data.dtype,
            real_nbytes=real,
            virtual_nbytes=virtual,
            original_virtual_nbytes=original_virtual,
            ratio=buf.ratio,
        )

    def decompress(self, message: CompressedMessage, consumers: int = 1) -> np.ndarray:
        """Reconstruct the array carried by ``message``.

        ``consumers`` is the number of ranks that decompress this same
        message object (every receiver of a forwarded C-Allgather block or
        C-Bcast buffer).  The first of them runs the codec and parks the
        array on the message; every consumer gets its own copy, the last one
        the parked array itself, which leaves the message.  So the codec runs
        once per message, no two ranks share memory, and nothing decoded
        outlives the message.  Each consumer is still charged its own
        :meth:`decompress_seconds`.
        """
        if consumers <= 1:
            return self.codec.decompress(message.payload)
        shared = message.shared_decode
        if not shared:
            shared += [self.codec.decompress(message.payload), consumers]
        array, left = shared
        if left == 1:
            shared.clear()
            return array
        shared[1] = left - 1
        return array.copy()

    # ----------------------------------------------------------- time models

    def compress_seconds(self, message: CompressedMessage) -> float:
        """Modelled time that producing ``message`` took."""
        return self.ctx.cost.compress_seconds(
            self.codec, message.original_virtual_nbytes, ratio=message.ratio
        )

    def decompress_seconds(self, message: CompressedMessage) -> float:
        """Modelled time to reconstruct ``message``."""
        return self.ctx.cost.decompress_seconds(
            self.codec, message.original_virtual_nbytes, ratio=message.ratio
        )

    def overall_ratio(self) -> Optional[float]:
        """Overall compression ratio observed so far (None before any call)."""
        if self.stats.count == 0:
            return None
        return self.stats.overall_ratio


def make_adapter(config: CCollConfig, ctx: Optional[CollectiveContext] = None) -> CompressionAdapter:
    """Build the adapter described by ``config`` (convenience for the collectives)."""
    return CompressionAdapter(config.make_codec(), ctx if ctx is not None else config.context())


def check_finite(arrays: Sequence[np.ndarray], n_ranks: int) -> None:
    """Reject NaN/Inf input of a compressed collective before it runs.

    The codecs refuse non-finite values, so without this check the error
    would surface from inside a rank program mid-simulation.  ``n_ranks``
    counts the ranks that exchange compressed data: a lone one sends
    nothing and so compresses nothing, and its input is not checked.
    Raises :class:`~repro.compression.errors.UnsupportedDataError`.
    """
    if n_ranks > 1:
        for array in arrays:
            check_compressible(array, "compressed collective input")
