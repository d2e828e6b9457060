"""Binomial-tree reduce (SUM) to a root rank.

Partial sums flow up a binomial tree; the root ends up with the element-wise
sum of every rank's vector.  This is the collective behind the image-stacking
use case when only the root needs the stacked image.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.collectives.context import CollectiveContext, Plan, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Wait
from repro.mpisim.timeline import CAT_REDUCTION, CAT_WAIT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.cluster import Cluster

__all__ = ["binomial_reduce_program", "binomial_reduce_plan"]


def binomial_reduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
    root: int = 0,
    wait_category: str = CAT_WAIT,
):
    """Rank program for the binomial reduce; the root returns the sum, others None."""
    relative = (rank - root) % size
    accumulator = my_vector
    if size == 1:
        return accumulator

    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative - mask + root) % size
            req = yield Isend(
                dest=parent, data=accumulator, nbytes=ctx.vbytes(accumulator), tag=0
            )
            yield Wait(req, category=wait_category)
            return None
        child = relative + mask
        if child < size:
            source = (child + root) % size
            req = yield Irecv(source=source, tag=0)
            incoming = yield Wait(req, category=wait_category)
            accumulator = accumulator + incoming
            yield Compute(ctx.reduce_seconds(incoming), category=CAT_REDUCTION)
        mask <<= 1
    return accumulator


def binomial_reduce_plan(cluster: Cluster, n_ranks: int, inputs, root: int = 0) -> Plan:
    """Plan a sum of one vector per rank onto ``root``."""
    ctx = cluster.context()
    vectors = as_rank_arrays(inputs, n_ranks)

    def factory(rank: int, size: int):
        return binomial_reduce_program(rank, size, vectors[rank], ctx, root=root)

    return Plan(n_ranks, factory)
