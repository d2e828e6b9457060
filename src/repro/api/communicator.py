"""The :class:`Communicator` — the session object exposing every collective.

Layer two of the three-layer story (``Cluster -> Communicator -> outcomes``).
A communicator binds a :class:`~repro.api.cluster.Cluster` and a rank count
once, then exposes the full collective surface as methods::

    comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(16)
    outcome = comm.allreduce(vectors)                       # tuning-table pick
    outcome = comm.allreduce(vectors, compression="on")     # full C-Allreduce
    outcome = comm.allreduce(vectors, compression="auto")   # PR 2 break-even gate
    comm.last_algorithm                                     # what "auto" chose

Every method takes the same path: it resolves the call's mode (the schedule
and the compression route), builds a :class:`~repro.collectives.context.Plan`
from the collective registry (:mod:`repro.api.registry`), and hands the plan
to :meth:`Communicator._execute`, which simulates it, records the session
traces and returns a :class:`~repro.collectives.context.CollectiveOutcome`
(a :class:`~repro.ccoll.movement.CCollOutcome` when compression is
involved).  :meth:`Communicator.capture` stops after the build and returns
the plan itself, which is how :mod:`repro.workload` multiplexes many
sessions onto one engine.

The ``compression`` argument is resolved through the *same* alias table as the
Table V harness (:data:`repro.ccoll.variants.VARIANT_ALIASES`):

``"off"``
    The uncompressed baseline; ``algorithm`` picks the schedule (``"auto"``
    consults :func:`repro.collectives.selection.select_algorithm`).
``"on"`` / ``"di"`` / ``"nd"`` (allreduce only for di/nd)
    The C-Coll variant with that canonical name (``Overlap`` / ``DI`` / ``ND``).
``"auto"``
    The placement- and bandwidth-aware choice: on multi-rank-per-node fabrics
    the topology-aware C-Allreduce, which compresses only the inter-node hops
    and only when the break-even gate says so; elsewhere the break-even gate of
    :func:`repro.ccoll.topology_aware.select_inter_compression` decides
    between the full C-collective and the uncompressed baseline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Union

import numpy as np

from repro.api.cluster import Cluster
from repro.api.registry import REGISTRY
from repro.ccoll.movement import CCollOutcome
from repro.ccoll.topology_aware import select_inter_compression
from repro.ccoll.variants import canonical_variant
from repro.collectives import selection
from repro.collectives.context import CollectiveOutcome, Plan
from repro.mpisim.launcher import SimulationResult, run_simulation
from repro.mpisim.topology import FlatTopology, Topology

__all__ = ["Communicator"]


def _check_fits(topology: Optional[Topology], n_ranks: int) -> None:
    """Raise unless ``n_ranks`` ranks fit on the fabric's host slots.

    Fixed-size fabrics (fat trees, dragonflies, and a job's placement view of
    one) report ``n_fabric_nodes``; flat and two-level fabrics size
    themselves to the communicator and are unbounded.
    """
    hosts = getattr(topology, "n_fabric_nodes", None)
    if hosts is None:
        return
    last = max(topology.node_of(rank) for rank in range(n_ranks))
    if last >= hosts:
        raise ValueError(
            f"{n_ranks} ranks reach node {last}, outside the fabric's {hosts} "
            f"host slots ({topology.describe()}); grow the fabric or use fewer ranks"
        )


def _reporting_inter_compressed(plan: Plan, compressed: bool) -> Plan:
    """Make ``plan`` finish as a :class:`CCollOutcome` saying whether "auto" compressed."""
    finish = plan.finish

    def finish_auto(sim: SimulationResult) -> CCollOutcome:
        outcome = finish(sim)
        return CCollOutcome(
            values=outcome.values,
            sim=outcome.sim,
            compression_ratio=getattr(outcome, "compression_ratio", None),
            inter_compressed=compressed,
        )

    plan.finish = finish_auto
    return plan


class Communicator:
    """A fixed-size rank session on a :class:`Cluster`.

    Parameters
    ----------
    cluster:
        The machine description (``None`` -> the calibrated default cluster).
    n_ranks:
        Communicator size; bound once, like ``MPI_COMM_WORLD``.  A fixed-size
        fabric must have a host slot for every rank.
    """

    def __init__(self, cluster: Optional[Cluster], n_ranks: int) -> None:
        if int(n_ranks) != n_ranks or n_ranks < 1:
            raise ValueError(f"n_ranks must be a positive integer, got {n_ranks!r}")
        self.cluster = cluster if cluster is not None else Cluster()
        self.n_ranks = int(n_ranks)
        _check_fits(self.cluster.topology, self.n_ranks)
        #: compression mode applied when a call does not pass one explicitly
        #: (overridable per session via :meth:`with_options`)
        self.default_compression: Union[str, bool] = "off"
        #: algorithm chosen by each allreduce call, latest last ("auto" trace)
        self.algorithm_trace: List[str] = []
        #: canonical compression route of each compressed-capable call
        self.compression_trace: List[str] = []
        #: set on the sibling :meth:`capture` hands its call: plans are returned unrun
        self._capturing = False

    # ----------------------------------------------------------------- helpers

    @property
    def size(self) -> int:
        """Alias of ``n_ranks`` (MPI naming)."""
        return self.n_ranks

    @property
    def last_algorithm(self) -> Optional[str]:
        """The allreduce algorithm used by the most recent call, if any."""
        return self.algorithm_trace[-1] if self.algorithm_trace else None

    @property
    def last_compression(self) -> Optional[str]:
        """Canonical compression route of the most recent compressible call."""
        return self.compression_trace[-1] if self.compression_trace else None

    def with_options(
        self,
        *,
        compression: Union[str, bool, None] = None,
        contention: Optional[str] = None,
        **config_updates,
    ) -> "Communicator":
        """A sibling session with some options shallowly overridden.

        The returned communicator shares this session's rank count and —
        unless ``contention`` changes — the *same* topology object, so
        parameter sweeps (the harness runs many) adjust ``error_bound``,
        ``size_multiplier`` or the compression default without rebuilding the
        fabric's stage caches or the session itself.

        Parameters
        ----------
        compression:
            New default compression mode for calls that do not pass one
            (``"off"``/``"on"``/``"di"``/``"nd"``/``"auto"``/bool).
        contention:
            Re-time the fabric's shared stages under this discipline
            (``"reservation"``/``"fair"``); a no-op on uncontended fabrics.
        **config_updates:
            Any :class:`~repro.ccoll.config.CCollConfig` field, e.g.
            ``error_bound=1e-4`` or ``size_multiplier=64.0``.
        """
        cluster = self.cluster
        if config_updates:
            cluster = cluster.with_updates(
                config=cluster.config.with_updates(**config_updates)
            )
        if contention is not None:
            topology = cluster.topology if cluster.topology is not None else FlatTopology()
            # preserve the preset name: the machine is the same, only the
            # stage timing discipline changes
            updates = {
                "topology": topology.with_contention(contention),
                "preset": cluster.preset,
            }
            if cluster.network is not None and cluster.network.contention != contention:
                # keep the network model's contention knob in agreement with
                # the topology: the engine upgrades any reservation topology
                # whose network says "fair", so a stale knob would silently
                # route the session back to the sibling's fair-share fabric
                updates["network"] = dataclasses.replace(
                    cluster.network, contention=contention
                )
            cluster = cluster.with_updates(**updates)
        clone = Communicator(cluster, self.n_ranks)
        if compression is not None:
            clone._resolve_compression(compression)  # validate eagerly
            clone.default_compression = compression
        else:
            clone.default_compression = self.default_compression
        return clone

    def capture(self, call: Callable[["Communicator"], Any]) -> Plan:
        """Build the plan ``call`` would run, without running it.

        The session-multiplexing hook behind :mod:`repro.workload`: ``call``
        receives a sibling communicator and issues exactly one collective
        against it (``lambda c: c.allreduce(vectors)``).  All build-time work
        happens for real — algorithm selection against this cluster's
        topology, compression planning, payload precomputation — but the
        sibling returns the :class:`~repro.collectives.context.Plan` instead
        of simulating it, so a multi-job engine can bind ``plan.factory``
        onto its own slots.
        """
        probe = Communicator(self.cluster, self.n_ranks)
        probe.default_compression = self.default_compression
        probe._capturing = True
        return call(probe)

    def _plan(
        self,
        collective: str,
        variant: str,
        *data,
        algorithm: Optional[str] = None,
        compression: Optional[str] = None,
        **options,
    ) -> Plan:
        """Build the registry's ``(collective, variant)`` plan for this session.

        ``algorithm`` and ``compression`` label the plan for the session
        traces (``None``: the call is not traced).
        """
        plan = REGISTRY[collective, variant](self.cluster, self.n_ranks, *data, **options)
        plan.algorithm = algorithm
        plan.compression = compression
        return plan

    def _execute(self, plan: Plan):
        """Run ``plan`` on the simulator: the one execution path of every collective.

        Appends the plan's labels to the session traces and returns what
        ``plan.finish`` makes of the simulation; the sibling of
        :meth:`capture` returns the plan itself, unrun.
        """
        if self._capturing:
            return plan
        sim = run_simulation(
            plan.n_ranks,
            plan.factory,
            network=self.cluster.network,
            topology=self.cluster.topology,
        )
        if plan.algorithm is not None:
            self.algorithm_trace.append(plan.algorithm)
        if plan.compression is not None:
            self.compression_trace.append(plan.compression)
        return plan.finish(sim)

    def _resolve_compression(self, compression: Union[str, bool]) -> str:
        """Map a user compression switch to ``"auto"`` or a canonical variant."""
        if compression is False:
            return "AD"
        if compression is True:
            return "Overlap"
        key = str(compression).strip().lower()
        if key == "auto":
            return "auto"
        return canonical_variant(key)

    @staticmethod
    def _is_framework_switch(compression: Union[str, bool]) -> bool:
        """True for the facade's on/off-style switches (vs explicit variants)."""
        return compression is True or str(compression).strip().lower() == "on"

    def _effective_compression(self, compression: Union[str, bool, None]) -> Union[str, bool]:
        """Apply the session's default when the call does not pass a mode."""
        return self.default_compression if compression is None else compression

    def _configured_c_variant(self) -> str:
        """The C-Allreduce variant the cluster's config asks for."""
        return "Overlap" if self.cluster.config.use_overlap else "ND"

    def _gate_says_compress(self) -> bool:
        """The PR 2 break-even gate on this cluster's fabric."""
        topology = self.cluster.topology if self.cluster.topology is not None else FlatTopology()
        return select_inter_compression(topology, self.cluster.config, self.cluster.network)

    # --------------------------------------------------------------- allreduce

    def allreduce(
        self,
        inputs,
        algorithm: str = "auto",
        compression: Union[str, bool, None] = None,
    ):
        """Element-wise sum across all ranks; every rank gets the result.

        ``algorithm`` applies to the uncompressed path (``"auto"`` consults
        the tuning table; or name one of ``ring`` / ``recursive_doubling`` /
        ``rabenseifner`` / ``hierarchical``).  ``compression`` is resolved via
        the shared Table V alias table (see the module docstring); ``None``
        falls back to the session's ``default_compression`` (``"off"`` unless
        overridden through :meth:`with_options`).
        """
        explicit = compression is not None
        compression = self._effective_compression(compression)
        mode = self._resolve_compression(compression)
        if mode == "Overlap" and self._is_framework_switch(compression):
            # "on"/True ask for the C-Coll framework *as configured*; the
            # explicit "overlap"/"nd" spellings pin the exact Table V variant
            mode = self._configured_c_variant()
        if algorithm != "auto" and mode != "AD" and not explicit:
            # an explicitly named schedule wins over the session's compression
            # default: the named algorithms are uncompressed schedules
            mode = "AD"
        if mode == "AD":
            return self._execute(self._uncompressed_allreduce(inputs, algorithm))
        if algorithm != "auto":
            raise ValueError(
                "algorithm= only applies to compression='off'; the compressed "
                "variants fix their own schedule (ring / hierarchical)"
            )
        if mode == "auto":
            return self._execute(self._auto_compressed_allreduce(inputs))
        return self._execute(
            self._plan("allreduce", mode, inputs, algorithm="ring", compression=mode)
        )

    def _uncompressed_allreduce(self, inputs, algorithm: str) -> Plan:
        """The named or (``"auto"``) tuning-table-selected uncompressed allreduce."""
        if not isinstance(inputs, np.ndarray):
            inputs = list(inputs)
        # select_algorithm is looked up in the selection module at call time,
        # so instrumenting that module's attribute sees every "auto" pick
        used = selection.resolve_algorithm(
            algorithm, inputs, self.n_ranks, self.cluster.context(), self.cluster.topology
        )
        return self._plan("allreduce", used, inputs, algorithm=used, compression="AD")

    def _auto_compressed_allreduce(self, inputs) -> Plan:
        """``compression="auto"``: placement-aware schedule + break-even gate.

        Multi-rank-per-node fabrics get the topology-aware C-Allreduce, whose
        break-even gate decides per fabric whether the inter-node hops are
        worth compressing.  One-rank-per-node fabrics (including flat) have
        no intra/inter split, so the same gate simply picks between the full
        C-Allreduce and the tuning-table baseline.
        """
        topology = self.cluster.topology
        if topology is not None and topology.max_ranks_per_node(self.n_ranks) > 1:
            # co-located ranks: the hierarchical schedule applies (on a single
            # node it degenerates to the lossless intra-node reduction)
            return self._plan(
                "allreduce",
                "topology_aware",
                inputs,
                algorithm="hierarchical",
                compression="topology_aware",
            )
        if self._gate_says_compress():
            variant = self._configured_c_variant()
            plan = self._plan("allreduce", variant, inputs, algorithm="ring", compression=variant)
            return _reporting_inter_compressed(plan, True)
        return _reporting_inter_compressed(self._uncompressed_allreduce(inputs, "auto"), False)

    # --------------------------------------------------- data-movement family

    def allgather(self, inputs, compression: Union[str, bool, None] = None) -> CollectiveOutcome:
        """Every rank contributes a block; every rank receives all blocks."""
        mode = self._movement_mode("allgather", compression)
        return self._execute(self._plan("allgather", mode, inputs, compression=mode))

    def bcast(
        self, data, root: int = 0, compression: Union[str, bool, None] = None
    ) -> CollectiveOutcome:
        """Broadcast ``data`` from ``root`` to every rank."""
        root = self._check_root(root)
        mode = self._movement_mode("bcast", compression)
        return self._execute(self._plan("bcast", mode, data, root=root, compression=mode))

    def scatter(
        self, inputs, root: int = 0, compression: Union[str, bool, None] = None
    ) -> CollectiveOutcome:
        """Scatter one block per rank from ``root``."""
        root = self._check_root(root)
        mode = self._movement_mode("scatter", compression)
        return self._execute(self._plan("scatter", mode, inputs, root=root, compression=mode))

    def reduce_scatter(
        self,
        inputs,
        compression: Union[str, bool, None] = None,
        overlap: Optional[bool] = None,
    ) -> CollectiveOutcome:
        """Reduce element-wise and scatter chunks; rank ``r`` gets chunk ``r``.

        ``overlap`` overrides the config's PIPE-SZx pipelining switch on the
        compressed path.
        """
        mode = self._movement_mode("reduce_scatter", compression, di_available=False)
        if mode == "Overlap":
            # the compressed schedule that runs: the explicit overlap argument,
            # falling back to the config's PIPE-SZx switch
            pipelined = self.cluster.config.use_overlap if overlap is None else overlap
            mode = "Overlap" if pipelined else "ND"
        return self._execute(self._plan("reduce_scatter", mode, inputs, compression=mode))

    def _movement_mode(
        self, name: str, compression: Union[str, bool, None], di_available: bool = True
    ) -> str:
        """Resolve a compression switch for the non-allreduce collectives.

        Returns ``"AD"`` (baseline), ``"DI"`` (CPR-P2P) or ``"Overlap"``
        (the C-Coll framework variant); ``"auto"`` applies the break-even
        gate.  ``ND`` has no meaning outside allreduce.  ``None`` falls back
        to the session's ``default_compression``.
        """
        compression = self._effective_compression(compression)
        mode = self._resolve_compression(compression)
        if mode == "auto":
            mode = "Overlap" if self._gate_says_compress() else "AD"
        if mode == "ND" or (mode == "DI" and not di_available):
            options = "'off', 'on', 'di' or 'auto'" if di_available else "'off', 'on' or 'auto'"
            raise ValueError(
                f"compression={compression!r} is not available for {name}; use {options}"
            )
        return mode

    # ------------------------------------------------------ uncompressed-only

    def gather(self, inputs, root: int = 0) -> CollectiveOutcome:
        """Gather one block per rank to ``root`` (no compressed variant in C-Coll)."""
        root = self._check_root(root)
        return self._execute(self._plan("gather", "AD", inputs, root=root))

    def reduce(self, inputs, root: int = 0) -> CollectiveOutcome:
        """Sum one vector per rank onto ``root`` (no compressed variant in C-Coll)."""
        root = self._check_root(root)
        return self._execute(self._plan("reduce", "AD", inputs, root=root))

    def alltoall(self, inputs) -> CollectiveOutcome:
        """Pairwise exchange: ``inputs[r][d]`` is the block rank ``r`` sends to ``d``."""
        return self._execute(self._plan("alltoall", "AD", inputs))

    def barrier(self) -> CollectiveOutcome:
        """Synchronise all ranks; every rank's value is ``None``."""
        return self._execute(self._plan("barrier", "AD"))

    # -------------------------------------------------------------------- misc

    def _check_root(self, root) -> int:
        """Validate a root rank; return it as an ``int``."""
        try:
            index = int(root)
        except (TypeError, ValueError):
            index = None
        if index is None or index != root or not 0 <= index < self.n_ranks:
            raise ValueError(f"root must be an integer in [0, {self.n_ranks}), got {root!r}")
        return index

    def __repr__(self) -> str:
        return f"Communicator(n_ranks={self.n_ranks}, cluster={self.cluster!r})"
