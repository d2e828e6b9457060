"""repro.api — the unified session API for running collectives.

This is the package's public surface since PR 3.  The three-layer story:

1. :class:`Cluster` describes the machine once — interconnect, topology,
   cost model, C-Coll settings, virtual-size scaling — either directly or via
   ``Cluster.from_preset("fat_tree", nodes=8)``.
2. :class:`Communicator` is an mpi4py-style session bound to a cluster and a
   rank count, exposing ``allreduce / reduce_scatter / allgather / bcast /
   scatter / gather / reduce / alltoall / barrier`` with ``algorithm="auto"``
   (the MPICH-style tuning table) and ``compression="off"|"on"|"auto"``
   (the C-Coll variants and the fabric break-even gate).
3. Every call returns the familiar outcome objects
   (:class:`~repro.collectives.context.CollectiveOutcome` /
   :class:`~repro.ccoll.movement.CCollOutcome`): per-rank values plus the
   simulated timeline.

Every collective takes one path: the communicator resolves the call's mode,
builds a :class:`~repro.collectives.context.Plan` from the collective
registry (:mod:`repro.api.registry`) and runs it on the discrete-event
simulator.  ``Communicator.capture`` returns the plan unrun, for callers
that schedule rank programs themselves (:mod:`repro.workload`)::

    from repro.api import Cluster, Communicator

    comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(16)
    outcome = comm.allreduce(vectors, compression="auto")
    print(outcome.total_time, comm.last_algorithm)
"""

from repro.api.cluster import Cluster
from repro.api.communicator import Communicator

__all__ = [
    "Cluster",
    "Communicator",
]
