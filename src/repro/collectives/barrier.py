"""Barrier synchronisation (MPI_Barrier).

The engine's :class:`~repro.mpisim.commands.Barrier` command already
synchronises all ranks at the maximum arrival time; this module merely wraps
it in the standard rank-program / plan-builder pair so the facade
(:meth:`repro.api.Communicator.barrier`) runs it through the same collective
registry as every other collective.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.collectives.context import Plan
from repro.mpisim.commands import Barrier
from repro.mpisim.timeline import CAT_WAIT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.cluster import Cluster

__all__ = ["barrier_program", "barrier_plan"]


def barrier_program(rank: int, size: int, category: str = CAT_WAIT):
    """Rank program: synchronise with every other rank, return ``None``."""
    yield Barrier(category=category)
    return None


def barrier_plan(cluster: Cluster, n_ranks: int) -> Plan:
    """Plan a barrier across ``n_ranks`` ranks."""
    return Plan(n_ranks, barrier_program)
