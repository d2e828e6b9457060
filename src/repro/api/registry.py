"""The collective registry: one plan builder per (collective, variant).

Every collective the session API exposes is an entry here.  A builder is
called as ``builder(cluster, n_ranks, *data, **options)`` and returns a
:class:`~repro.collectives.context.Plan` — inputs normalised, codec adapters
made, rank-program factory ready — which
:meth:`repro.api.Communicator._execute` runs on the simulator.  The variant
is the uncompressed schedule or the canonical compression route:

* ``("allreduce", algorithm)`` for each of
  :data:`~repro.collectives.selection.ALLREDUCE_ALGORITHMS`, and the
  compressed Table V variants ``DI`` / ``ND`` / ``Overlap`` plus
  ``topology_aware``;
* ``AD`` (uncompressed), ``DI`` (CPR-P2P) and ``Overlap`` (the C-Coll
  framework) for allgather, bcast and scatter;
* ``AD`` / ``ND`` / ``Overlap`` for reduce_scatter (``ND``: no PIPE-SZx
  pipelining);
* ``AD`` alone for gather, reduce, alltoall and barrier.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Tuple

from repro.ccoll.allreduce import c_allreduce_plan
from repro.ccoll.computation import c_reduce_scatter_plan
from repro.ccoll.cpr_p2p import (
    cpr_allgather_plan,
    cpr_allreduce_plan,
    cpr_bcast_plan,
    cpr_scatter_plan,
)
from repro.ccoll.movement import c_allgather_plan, c_bcast_plan, c_scatter_plan
from repro.ccoll.topology_aware import topology_aware_c_allreduce_plan
from repro.collectives.allgather import ring_allgather_plan
from repro.collectives.allreduce import ring_allreduce_plan
from repro.collectives.alltoall import pairwise_alltoall_plan
from repro.collectives.barrier import barrier_plan
from repro.collectives.bcast import binomial_bcast_plan
from repro.collectives.context import Plan
from repro.collectives.gather import binomial_gather_plan
from repro.collectives.hierarchical import hierarchical_allreduce_plan
from repro.collectives.rabenseifner import rabenseifner_allreduce_plan
from repro.collectives.recursive_doubling import recursive_doubling_allreduce_plan
from repro.collectives.reduce import binomial_reduce_plan
from repro.collectives.reduce_scatter import ring_reduce_scatter_plan
from repro.collectives.scatter import binomial_scatter_plan

__all__ = ["REGISTRY"]

#: (collective, variant) -> plan builder
REGISTRY: Dict[Tuple[str, str], Callable[..., Plan]] = {
    ("allreduce", "ring"): ring_allreduce_plan,
    ("allreduce", "recursive_doubling"): recursive_doubling_allreduce_plan,
    ("allreduce", "rabenseifner"): rabenseifner_allreduce_plan,
    ("allreduce", "hierarchical"): hierarchical_allreduce_plan,
    ("allreduce", "DI"): cpr_allreduce_plan,
    ("allreduce", "ND"): partial(c_allreduce_plan, overlap=False),
    ("allreduce", "Overlap"): partial(c_allreduce_plan, overlap=True),
    ("allreduce", "topology_aware"): topology_aware_c_allreduce_plan,
    ("allgather", "AD"): ring_allgather_plan,
    ("allgather", "DI"): cpr_allgather_plan,
    ("allgather", "Overlap"): c_allgather_plan,
    ("bcast", "AD"): binomial_bcast_plan,
    ("bcast", "DI"): cpr_bcast_plan,
    ("bcast", "Overlap"): c_bcast_plan,
    ("scatter", "AD"): binomial_scatter_plan,
    ("scatter", "DI"): cpr_scatter_plan,
    ("scatter", "Overlap"): c_scatter_plan,
    ("reduce_scatter", "AD"): ring_reduce_scatter_plan,
    ("reduce_scatter", "ND"): partial(c_reduce_scatter_plan, overlap=False),
    ("reduce_scatter", "Overlap"): partial(c_reduce_scatter_plan, overlap=True),
    ("gather", "AD"): binomial_gather_plan,
    ("reduce", "AD"): binomial_reduce_plan,
    ("alltoall", "AD"): pairwise_alltoall_plan,
    ("barrier", "AD"): barrier_plan,
}
