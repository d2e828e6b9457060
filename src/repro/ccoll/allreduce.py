"""C-Allreduce: the paper's flagship collective (Section III-E).

The ring allreduce is split into its two stages and each stage gets the
framework that fits it:

* the **reduce-scatter** stage uses the collective *computation* framework —
  per-round PIPE-SZx compression pipelined with the transfers
  (:mod:`repro.ccoll.computation`);
* the **allgather** stage uses the collective *data-movement* framework — the
  reduced chunk is compressed exactly once, the compressed chunks circulate
  around the ring with balanced sizes, and everything is decompressed only at
  the end (:mod:`repro.ccoll.movement`).

Running with ``overlap=False`` turns off the computation-framework pipelining
and yields the paper's intermediate "ND" (Novel Design) variant of Table V.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.ccoll.adapter import CompressionAdapter, check_finite
from repro.ccoll.computation import (
    DEFAULT_SEGMENT_UNCOMPRESSED_BYTES,
    c_reduce_scatter_program,
)
from repro.ccoll.movement import c_allgather_program, compressed_outcome
from repro.collectives.context import CollectiveContext, Plan, as_rank_arrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.cluster import Cluster

__all__ = ["c_allreduce_program", "c_allreduce_plan"]

#: tag offset separating the allgather stage from the reduce-scatter stage
_AG_TAG_OFFSET = 1_000_000


def c_allreduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    rs_adapter: CompressionAdapter,
    ag_adapter: CompressionAdapter,
    ctx: CollectiveContext,
    overlap: bool = True,
    max_segments: int = 32,
    segment_bytes: int = DEFAULT_SEGMENT_UNCOMPRESSED_BYTES,
):
    """Rank program for C-Allreduce; returns the reconstructed reduced vector."""
    if size == 1:
        return np.ascontiguousarray(my_vector).reshape(-1)

    # stage 1: compression-pipelined ring reduce-scatter
    reduced_chunk = yield from c_reduce_scatter_program(
        rank,
        size,
        my_vector,
        rs_adapter,
        ctx,
        overlap=overlap,
        max_segments=max_segments,
        segment_bytes=segment_bytes,
    )

    # stage 2: compress-once ring allgather of the reduced chunks
    blocks = yield from c_allgather_program(
        rank, size, reduced_chunk, ag_adapter, ctx, tag_offset=_AG_TAG_OFFSET
    )
    return np.concatenate(blocks)


def c_allreduce_plan(cluster: Cluster, n_ranks: int, inputs, overlap: bool = True) -> Plan:
    """Plan C-Allreduce (or its non-overlapped ND variant with ``overlap=False``).

    The cluster's topology only affects link timing here (the flat ring
    schedule is kept); the topology-aware C-Allreduce
    (``Communicator.allreduce`` with ``compression="auto"``) is the
    placement-aware schedule that compresses inter-node hops only.
    """
    config = cluster.config
    ctx = config.context()
    vectors = as_rank_arrays(inputs, n_ranks)
    check_finite(vectors, n_ranks)
    rs_adapters = [
        CompressionAdapter(config.make_pipelined_codec(), ctx) for _ in range(n_ranks)
    ]
    ag_adapters = [CompressionAdapter(config.make_codec(), ctx) for _ in range(n_ranks)]

    def factory(rank: int, size: int):
        return c_allreduce_program(
            rank,
            size,
            vectors[rank],
            rs_adapters[rank],
            ag_adapters[rank],
            ctx,
            overlap=overlap,
        )

    return Plan(n_ranks, factory, finish=compressed_outcome(rs_adapters + ag_adapters))
