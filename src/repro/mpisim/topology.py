"""Topology layer: per-(src, dst) link resolution for the simulated fabric.

The seed simulator modelled the interconnect as one global
:class:`~repro.mpisim.network.NetworkModel` — every rank pair saw the same
latency and bandwidth, which matches the paper's one-rank-per-node Omni-Path
runs but cannot express the placements real clusters use.  This module makes
the interconnect pluggable: a :class:`Topology` maps every (src, dst) rank
pair to a :class:`LinkModel`, and the engine charges each transfer against its
link instead of the global model.

Five topologies are provided:

* :class:`FlatTopology` — every pair uses the global network model, exactly as
  the seed did.  ``link()`` returns ``None`` so the engine takes the original
  code path and all calibrated figures reproduce bit-for-bit.
* :class:`HierarchicalTopology` — two-level fabric: ranks co-located on a node
  talk over a fast intra-node link (shared-memory / UPI class), ranks on
  different nodes over the slower inter-node fabric.  Each pair gets a
  dedicated link (no contention), which isolates the placement effect.
* :class:`SharedUplinkTopology` — hierarchical placement plus contention: all
  concurrent inter-node transfers leaving one node split that node's single
  uplink evenly.  This is the regime where hierarchical collectives (and the
  topology-aware C-Allreduce in :mod:`repro.ccoll.topology_aware`) pay off.
* :class:`FatTreeTopology` / :class:`DragonflyTopology` — switch-level
  fabrics built on :class:`SwitchFabricTopology`.

Path/stage contention model
---------------------------

The shared-uplink model meters per-node egress only: transfers between two
*different* node pairs never contend.  Switch-level fabrics fix that by
resolving every inter-node ``(src, dst)`` pair to a multi-hop *path* of
:class:`SharedLink` stages — NIC egress, one link per inter-switch hop, NIC
ingress — so any two transfers whose paths overlap on a stage queue against
each other, wherever their endpoints live.  A three-level k-ary fat tree
(``k = 4`` shown) wires the stages like this::

            core0   core1   core2   core3          ("ft-agg-core" /
              |  \\  /  |      |  \\  /  |            "ft-core-agg" stages)
            +-------------+ +-------------+
            | agg0   agg1 | | agg0   agg1 |  ...   (one box per pod,
            |   |  X   |  | |   |  X   |  |         k/2 agg switches)
            | edge0 edge1 | | edge0 edge1 |        ("ft-up"/"ft-down" stages)
            +--/-\\---/-\\--+ +--/-\\---/-\\--+
              h0 h1 h2 h3     h4 h5 h6 h7   ...    (k/2 hosts per edge,
              |NIC rails 0..r per host|             "nic-up"/"nic-down")

A transfer ``h0 -> h6`` climbs ``nic-up -> ft-up -> ft-agg-core`` and descends
``ft-core-agg -> ft-down -> nic-down``; a concurrent ``h1 -> h7`` that hashes
onto the same aggregation/core choice shares three of those stages and queues
behind it, even though the two flows share neither endpoint.  Each stage is a
:class:`SharedLink` with its own capacity (switch links are scaled by
``1 / oversubscription``), multi-NIC hosts expose ``nics_per_node`` parallel
rail stages selected per message (hash or stripe), and routing is either
``minimal`` (deterministic ECMP hash over the candidate paths) or ``adaptive``
(least-loaded candidate by reservation backlog).

Contention models
-----------------

Contended topologies time overlapping bulk streams with one of two
disciplines, chosen by their ``contention`` parameter:

``contention="reservation"`` (default)
    A :class:`SharedLink` serialises bulk streams at full capacity and gates
    windowed poll credits behind earlier reservations, so aggregate traffic
    never exceeds the stage capacity.  A multi-stage path reserves every
    stage it crosses from a common start time (see :func:`reserve_path`); per
    stage the occupied wire time is ``bytes / capacity``, which keeps
    per-stage capacity conservation exact — the property-based tests in
    ``tests/property`` pin this invariant.  Serialising is *aggregate-exact*
    for symmetric flows: the last of ``k`` equal streams finishes exactly when
    fair splitting would finish all of them.  For asymmetric mixes it is
    biased — whichever flow resolves first occupies the whole wire, so a
    small flow queued behind a large one finishes late.

``contention="fair"``
    A :class:`FairShareLink` stage applies processor sharing with max-min
    fair rates (progressive filling, see :mod:`repro.mpisim.fairshare`): the
    active-flow set re-divides the stage capacity on every arrival and
    departure, flows receive rate-change callbacks instead of a precomputed
    finish time, and the engine commits a departure only once no rank can act
    before it.  Symmetric flow sets reproduce the reservation model's
    aggregate finish times exactly; in an asymmetric mix the smaller flow
    completes strictly earlier — the physically faithful order.  This is the
    model to use when flow *ordering* matters (e.g. topology-aware
    C-Allreduce compresses only inter-node hops, making the residual flows
    asymmetric).

Both disciplines conserve capacity exactly; ``reservation`` stays the
bit-for-bit default everywhere (golden makespan pins in ``tests/property``
freeze it).  Uncontended topologies (flat, hierarchical) have no shared
stages, so the knob does not apply to them.

Fault model
-----------

Switch fabrics accept *fault overlays* — keyed by a stage-id prefix — that
degrade or fail whole families of stages mid-run (installed by the seeded
schedules of :mod:`repro.faults` through ``Engine.schedule_event``):

* **Degradation** (``set_stage_fault(prefix, factor=f)``): every stage whose
  id starts with ``prefix`` runs at ``nominal_capacity x f``.  Overlapping
  overlays multiply.  Already-instantiated stages are re-capacitated in
  place and cached path-link bottleneck bandwidths are refreshed, so both
  bulk reservations and windowed poll credits see the degraded wire;
  ``contention="fair"`` callers additionally feed the returned stages to
  :meth:`FairShareRegistry.apply_capacity_change` so in-flight fluid flows
  re-divide at the new capacities (the injector does this automatically).
* **Failure** (``failed=True``): the stage stays capacitated but routing
  refuses to cross it — ``_choose_route`` drops candidates containing a
  failed stage (raising if none survives) and ``resolve_link`` skips failed
  NIC rails, advancing deterministically to the next live rail.  In-flight
  transfers drain; only *new* messages re-route, which models link-level
  retransmission finishing what already entered the wire.
* **Reaction contract**: with any overlay active, adaptive routing orders
  candidates by (worst degradation, reservation backlog, placement history),
  so traffic rebalances around degraded stages before it balances load; and
  ``effective_inter_bandwidth()`` applies the worst live overlay factor per
  tier (conservatively treating a single degraded stage as degrading its
  whole tier), which is what lets the collective selector and the
  C-Allreduce compression gate react to faults with no code of their own.

Which stages can fail: any stage family a fabric wires — ``nic-up`` /
``nic-down`` rails, fat-tree ``ft-up`` / ``ft-down`` / ``ft-agg-core`` /
``ft-core-agg``, dragonfly ``df-local`` / ``df-global``.  Overlays are
cleared by ``clear_stage_fault`` and by ``reset()`` (a fresh simulation
starts healthy); with no overlays installed, every code path above is
byte-identical to the fault-free fabric, which keeps the golden makespan
pins bit-for-bit.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.mpisim.audit import (
    RESERVATION_SUBSCRIBERS,
    capacity_conservation_violations,
    trace_reservations,
)
from repro.mpisim.fairshare import (
    CONTENTION_FAIR,
    CONTENTION_MODES,
    CONTENTION_RESERVATION,
    FairFlow,
    FairShareRegistry,
)
from repro.utils.validation import ensure_in, ensure_non_negative, ensure_positive

__all__ = [
    "SharedLink",
    "FairShareLink",
    "CONTENTION_RESERVATION",
    "CONTENTION_FAIR",
    "LinkModel",
    "reserve_path",
    "trace_reservations",
    "capacity_conservation_violations",
    "Topology",
    "FlatTopology",
    "HierarchicalTopology",
    "SharedUplinkTopology",
    "SwitchFabricTopology",
    "FatTreeTopology",
    "DragonflyTopology",
    "RAIL_HASH",
    "RAIL_STRIPE",
    "ROUTE_MINIMAL",
    "ROUTE_ADAPTIVE",
]

#: calibrated defaults for a two-level cluster: intra-node links are
#: shared-memory class (fast, sub-microsecond), inter-node links are the
#: calibrated effective Omni-Path fabric of :class:`NetworkModel`.
DEFAULT_INTRA_LATENCY = 0.5e-6
DEFAULT_INTRA_BANDWIDTH = 12.0e9
DEFAULT_INTER_LATENCY = 20e-6
DEFAULT_INTER_BANDWIDTH = 0.55e9
#: per-switch-hop traversal latency (cut-through switching class); the NIC
#: latency (``DEFAULT_INTER_LATENCY``) dominates, matching the calibration
DEFAULT_HOP_LATENCY = 200e-9

#: multi-NIC rail-selection policies
RAIL_HASH = "hash"
RAIL_STRIPE = "stripe"
#: routing policies over the candidate paths of a switch fabric
ROUTE_MINIMAL = "minimal"
ROUTE_ADAPTIVE = "adaptive"

_GOLDEN_64 = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1


def _mix(*values: int) -> int:
    """Deterministic integer hash over small non-negative ints.

    Used for ECMP path and rail selection; unlike :func:`hash` it is stable
    across processes and Python versions, so simulated routings are
    reproducible everywhere.
    """
    h = _GOLDEN_64
    for v in values:
        h ^= (int(v) + _GOLDEN_64 + ((h << 6) & _MASK_64) + (h >> 2)) & _MASK_64
        h = (h * 0x100000001B3) & _MASK_64
    return h


@dataclass
class SharedLink:
    """Contention meter for one shared physical link (e.g. a node uplink).

    The link is modelled as a serial resource with a reservation queue:
    ``busy_until`` marks the time through which earlier bulk streams have
    reserved the wire.  A transfer that streams to completion reserves the
    link from ``max(start, busy_until)`` at full capacity and pushes
    ``busy_until`` to its finish time; windowed poll credits (capped at the
    transport's in-flight window) likewise earn bytes only after
    ``busy_until``.  Serialising overlapping streams this way yields the same
    aggregate finish times as fair bandwidth splitting for symmetric flows,
    keeps aggregate throughput bounded by ``capacity``, and — unlike an
    instantaneous share — is robust to the engine resolving completions
    eagerly, before sibling transfers have matched.

    ``active`` counts matched, uncompleted transfers charged to the link;
    it is load telemetry (see ``SharedUplinkTopology.uplink_load``), not a
    rate input.  ``assigned`` counts messages a fabric has *routed* over this
    stage so far; adaptive routing balances on it because at post time a
    freshly routed flow has not reserved any wire yet (its backlog is only
    visible as placement history).
    """

    capacity: float
    active: int = 0
    busy_until: float = float("-inf")
    assigned: int = 0

    def acquire(self) -> None:
        self.active += 1

    def release(self) -> None:
        self.active = max(0, self.active - 1)

    def reserve(self, start: float, nbytes: float) -> float:
        """Reserve the link for a bulk stream of ``nbytes`` from ``start``.

        Returns the finish time; the stream queues behind earlier reservations.
        """
        begin = max(start, self.busy_until)
        finish = begin + max(0.0, nbytes) / self.capacity
        self.busy_until = finish
        for subscriber in RESERVATION_SUBSCRIBERS:
            subscriber("reserve", self, finish, nbytes)
        return finish

    def clear(self) -> None:
        """Forget all reservations and in-flight accounting (simulation reset)."""
        self.active = 0
        self.busy_until = float("-inf")
        self.assigned = 0
        for subscriber in RESERVATION_SUBSCRIBERS:
            subscriber("clear", self, None, None)


@dataclass
class FairShareLink(SharedLink):
    """Processor-sharing stage: active flows re-divide capacity max-min fairly.

    Drop-in for :class:`SharedLink` wherever a topology wires a contended
    stage, selected by ``contention="fair"``.  ``flows`` holds the
    :class:`~repro.mpisim.fairshare.FairFlow` entries currently streaming
    across this stage; a :class:`~repro.mpisim.fairshare.FairShareRegistry`
    re-divides the capacity among them on every arrival/departure event and
    re-expresses the carried bytes as reservations, so ``busy_until`` (and
    the trace-based capacity audit) stay meaningful.  Windowed poll credits
    inherit the reservation mechanics but are capped at the stage's
    *residual* rate — capacity not allocated to fluid flows — so the two
    accounting schemes never overcommit the wire.
    """

    flows: Dict[int, FairFlow] = field(default_factory=dict)

    def allocated_rate(self) -> float:
        """Bandwidth currently allocated to fluid flows crossing this stage."""
        return sum(flow.rate for flow in self.flows.values())

    @property
    def backlogged(self) -> bool:
        """Whether any fluid flow currently holds backlog on this stage."""
        return any(flow.remaining > 0.0 for flow in self.flows.values())

    def clear(self) -> None:
        super().clear()
        self.flows.clear()


def reserve_path(stages: Iterable[SharedLink], start: float, nbytes: float) -> float:
    """Reserve a bulk stream of ``nbytes`` across every stage of a path.

    The stream starts on all stages at a common begin time — it cannot enter
    the path before the most-backlogged stage frees up — and occupies each
    stage for ``nbytes / stage.capacity`` of wire time, so per-stage capacity
    conservation holds exactly.  Returns the finish time at the bottleneck
    stage.  For a single stage this is identical to
    :meth:`SharedLink.reserve`.
    """
    stages = tuple(stages)
    begin = max([start] + [s.busy_until for s in stages])
    finish = begin
    for stage in stages:
        finish = max(finish, stage.reserve(begin, nbytes))
    return finish


@dataclass
class LinkModel:
    """The (latency, bandwidth) a specific rank pair sees, plus optional sharing.

    When ``shared`` is set, ``bandwidth`` is the link's full capacity and
    concurrent transfers contend through the :class:`SharedLink` reservation
    queue.  ``stages`` generalises this to a multi-hop fabric path: every
    listed :class:`SharedLink` is a switch stage the transfer crosses, and
    ``bandwidth`` must be the bottleneck (minimum) stage capacity.  At most
    one of ``shared`` / ``stages`` should be set.

    ``fair`` switches the contention discipline: when a
    :class:`~repro.mpisim.fairshare.FairShareRegistry` is attached (and the
    stages are :class:`FairShareLink` instances), bulk streams register with
    the registry as max-min fair fluid flows instead of reserving the wire
    serially; the engine defers their completion until the registry commits
    the departure.
    """

    latency: float
    bandwidth: float
    shared: Optional[SharedLink] = None
    stages: Tuple[SharedLink, ...] = ()
    fair: Optional[FairShareRegistry] = None

    def __post_init__(self) -> None:
        ensure_non_negative(self.latency, "latency")
        ensure_positive(self.bandwidth, "bandwidth")
        if self.shared is not None and self.stages:
            raise ValueError("set either shared (single uplink) or stages (path), not both")
        # normalised once: the contended stages this link's transfers cross
        self._shared_stages: Tuple[SharedLink, ...] = (
            tuple(self.stages)
            if self.stages
            else ((self.shared,) if self.shared is not None else ())
        )

    @property
    def shared_stages(self) -> Tuple[SharedLink, ...]:
        """Contended stages along this link's path (empty for dedicated links)."""
        return self._shared_stages

    def acquire(self) -> None:
        """Register an in-flight transfer (no-op on dedicated links)."""
        for stage in self._shared_stages:
            stage.acquire()

    def release(self) -> None:
        """Deregister a completed transfer (no-op on dedicated links)."""
        for stage in self._shared_stages:
            stage.release()


def _contention_variant(topology, contention: str):
    """Memoized re-timed sibling of a contended topology.

    Repeated requests for the same discipline return one cached clone (the
    engine re-resolves per run when ``NetworkModel.contention`` upgrades a
    topology, and rebuilding stage caches each time would defeat their
    reuse); the clone's cache points back, so round-tripping returns the
    original object.
    """
    ensure_in(contention, CONTENTION_MODES, "contention")
    if contention == topology._contention:
        return topology
    cached = topology._contention_clones.get(contention)
    if cached is None:
        cached = copy.copy(topology)
        cached._init_contention(contention)
        cached._contention_clones[topology._contention] = topology
        topology._contention_clones[contention] = cached
    return cached


class Topology(ABC):
    """Maps ranks to nodes and rank pairs to links.

    The engine calls :meth:`link` once per posted send; returning ``None``
    means "use the global :class:`NetworkModel` unchanged", which is how the
    flat topology stays bit-for-bit identical to the seed simulator.
    """

    @abstractmethod
    def node_of(self, rank: int) -> int:
        """Node id hosting ``rank``."""

    @abstractmethod
    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        """Link used by a ``src -> dst`` transfer (``None`` = global model)."""

    def resolve_link(self, src: int, dst: int) -> Optional[LinkModel]:
        """Resolve the link for one *posted* send (called by the engine).

        Unlike :meth:`link` — which must be a pure snapshot — this hook may be
        stateful: switch fabrics use it to stripe messages across NIC rails
        and to route adaptively around backlogged stages.  The default
        delegates to :meth:`link`.
        """
        return self.link(src, dst)

    def same_node(self, src: int, dst: int) -> bool:
        """Whether two ranks are co-located."""
        return self.node_of(src) == self.node_of(dst)

    def node_ranks(self, rank: int, n_ranks: int) -> List[int]:
        """All ranks sharing ``rank``'s node, in rank order."""
        node = self.node_of(rank)
        return [r for r in range(n_ranks) if self.node_of(r) == node]

    def node_leaders(self, n_ranks: int) -> List[int]:
        """Lowest rank of each node, ordered by first appearance."""
        leaders: Dict[int, int] = {}
        for r in range(n_ranks):
            leaders.setdefault(self.node_of(r), r)
        return list(leaders.values())

    def n_nodes(self, n_ranks: int) -> int:
        """Number of distinct nodes hosting the first ``n_ranks`` ranks."""
        return len({self.node_of(r) for r in range(n_ranks)})

    def max_ranks_per_node(self, n_ranks: int) -> int:
        """Largest co-located rank group size."""
        counts: Dict[int, int] = {}
        for r in range(n_ranks):
            node = self.node_of(r)
            counts[node] = counts.get(node, 0) + 1
        return max(counts.values()) if counts else 1

    @property
    def shares_uplinks(self) -> bool:
        """Whether concurrent inter-node transfers contend for bandwidth."""
        return False

    @property
    def contention(self) -> str:
        """Contention discipline of this fabric's shared stages.

        ``"reservation"`` (the bit-for-bit default) or ``"fair"``; see the
        module docstring's "Contention models" section.  Uncontended
        topologies report ``"reservation"`` — they have no shared stages, so
        both disciplines are identical.
        """
        return CONTENTION_RESERVATION

    @property
    def fair_registry(self) -> Optional[FairShareRegistry]:
        """The fair-share registry driving this fabric (``None`` unless fair)."""
        return None

    def with_contention(self, contention: str) -> "Topology":
        """A topology timing its shared stages under ``contention``.

        Returns ``self`` when nothing changes (including for uncontended
        topologies, where the disciplines coincide); contended topologies
        return a cheap clone with fresh stage state.
        """
        ensure_in(contention, CONTENTION_MODES, "contention")
        return self

    @property
    def oversubscription_ratio(self) -> float:
        """Fabric oversubscription (host injection : switch capacity); 1.0 = non-blocking."""
        return 1.0

    @property
    def nics_per_node(self) -> int:
        """Parallel NIC rails per node (1 unless the fabric is rail-optimised)."""
        return 1

    def effective_inter_bandwidth(self) -> Optional[float]:
        """Bandwidth one uncontended inter-node flow actually sees, or ``None``.

        ``None`` means "the global network model's bandwidth" (flat fabrics).
        The collective selector and the topology-aware C-Allreduce use this to
        scale their tuning thresholds and to decide whether compressing the
        inter-node hops pays on this fabric.
        """
        return None

    def fault_degradation(self) -> float:
        """How much fault overlays currently slow the inter-node tier.

        ``nominal / degraded`` effective inter-node bandwidth: 1.0 on a
        healthy fabric, 2.0 when the bottleneck tier runs at half rate.  The
        collective selector uses this to steer critical paths off degraded
        fabric (see the module docstring's "Fault model" section).  Fabrics
        without fault support always report 1.0.
        """
        return 1.0

    def reset(self) -> None:
        """Clear any per-simulation contention state (called by the engine)."""

    def describe(self) -> str:
        """One-line human-readable summary."""
        return type(self).__name__


class FlatTopology(Topology):
    """One rank per node, uniform links — the seed's (and the paper's) fabric.

    ``link()`` returns ``None`` for every pair, so the engine uses the global
    :class:`NetworkModel` through the exact code path the seed used.
    """

    def node_of(self, rank: int) -> int:
        return rank

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        return None

    def describe(self) -> str:
        return "flat (uniform links, one rank per node)"


class _PlacedTopology(Topology):
    """Shared placement logic for the two-level topologies."""

    def __init__(
        self,
        ranks_per_node: int = 1,
        placement: Optional[Sequence[int]] = None,
    ) -> None:
        if placement is None and ranks_per_node < 1:
            raise ValueError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
        self.ranks_per_node = int(ranks_per_node)
        self.placement = list(placement) if placement is not None else None
        if self.placement is not None and any(n < 0 for n in self.placement):
            raise ValueError("placement node ids must be non-negative")

    def node_of(self, rank: int) -> int:
        if self.placement is not None:
            if not (0 <= rank < len(self.placement)):
                raise IndexError(
                    f"rank {rank} outside explicit placement of {len(self.placement)} ranks"
                )
            return self.placement[rank]
        return rank // self.ranks_per_node


class HierarchicalTopology(_PlacedTopology):
    """Two-level fabric with dedicated per-pair links.

    Parameters
    ----------
    ranks_per_node:
        Block placement: rank ``r`` lives on node ``r // ranks_per_node``
        (ignored when ``placement`` is given).
    placement:
        Explicit rank -> node id mapping (overrides ``ranks_per_node``).
    intra_latency / intra_bandwidth:
        The shared-memory-class intra-node link.
    inter_latency / inter_bandwidth:
        The inter-node fabric link (defaults match the calibrated
        :class:`~repro.mpisim.network.NetworkModel`).
    """

    def __init__(
        self,
        ranks_per_node: int = 1,
        placement: Optional[Sequence[int]] = None,
        intra_latency: float = DEFAULT_INTRA_LATENCY,
        intra_bandwidth: float = DEFAULT_INTRA_BANDWIDTH,
        inter_latency: float = DEFAULT_INTER_LATENCY,
        inter_bandwidth: float = DEFAULT_INTER_BANDWIDTH,
    ) -> None:
        super().__init__(ranks_per_node=ranks_per_node, placement=placement)
        self._intra = LinkModel(latency=intra_latency, bandwidth=intra_bandwidth)
        self._inter = LinkModel(latency=inter_latency, bandwidth=inter_bandwidth)

    @property
    def intra(self) -> LinkModel:
        return self._intra

    @property
    def inter(self) -> LinkModel:
        return self._inter

    def effective_inter_bandwidth(self) -> Optional[float]:
        return self._inter.bandwidth

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        return self._intra if self.same_node(src, dst) else self._inter

    def describe(self) -> str:
        return (
            f"hierarchical ({self.ranks_per_node} ranks/node, "
            f"intra {self._intra.bandwidth / 1e9:.1f} GB/s, "
            f"inter {self._inter.bandwidth / 1e9:.2f} GB/s)"
        )


class SharedUplinkTopology(HierarchicalTopology):
    """Two-level fabric where each node has one uplink shared by its egress.

    Every inter-node transfer is charged against the *source* node's uplink
    stage; under the default ``contention="reservation"`` concurrent egress
    serialises through the :class:`SharedLink` queue, under
    ``contention="fair"`` it splits the uplink max-min fairly (see the module
    docstring).  Intra-node links stay dedicated.
    """

    def __init__(self, *args, contention: str = CONTENTION_RESERVATION, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._init_contention(contention)

    def _init_contention(self, contention: str) -> None:
        """(Re)configure the contention discipline with fresh stage state."""
        ensure_in(contention, CONTENTION_MODES, "contention")
        self._contention = contention
        self._fair = FairShareRegistry() if contention == CONTENTION_FAIR else None
        self._contention_clones: Dict[str, "SharedUplinkTopology"] = {}
        self._uplinks: Dict[int, SharedLink] = {}
        self._uplink_links: Dict[int, LinkModel] = {}

    @property
    def shares_uplinks(self) -> bool:
        return True

    @property
    def contention(self) -> str:
        return self._contention

    @property
    def fair_registry(self) -> Optional[FairShareRegistry]:
        return self._fair

    def with_contention(self, contention: str) -> "SharedUplinkTopology":
        return _contention_variant(self, contention)

    def _uplink(self, node: int) -> LinkModel:
        cached = self._uplink_links.get(node)
        if cached is None:
            stage_cls = FairShareLink if self._fair is not None else SharedLink
            shared = stage_cls(capacity=self._inter.bandwidth)
            self._uplinks[node] = shared
            cached = LinkModel(
                latency=self._inter.latency,
                bandwidth=self._inter.bandwidth,
                shared=shared,
                fair=self._fair,
            )
            self._uplink_links[node] = cached
        return cached

    def uplink_load(self, node: int) -> int:
        """In-flight inter-node transfers currently leaving ``node``."""
        shared = self._uplinks.get(node)
        return shared.active if shared is not None else 0

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        if self.same_node(src, dst):
            return self._intra
        return self._uplink(self.node_of(src))

    def reset(self) -> None:
        # Reset reservations in place rather than dropping the dicts: repeated
        # launches on one topology object reuse the cached SharedLink /
        # LinkModel instances instead of growing fresh ones each run.
        for shared in self._uplinks.values():
            shared.clear()
        if self._fair is not None:
            self._fair.reset()

    def describe(self) -> str:
        return (
            f"shared-uplink ({self.ranks_per_node} ranks/node, "
            f"uplink {self._inter.bandwidth / 1e9:.2f} GB/s split across egress, "
            f"{self._contention} contention)"
        )


# ------------------------------------------------------------ switch fabrics

#: a stage id is any hashable tuple naming one directed physical link, e.g.
#: ``("ft-up", pod, edge, agg)``; a stage spec pairs it with its capacity
StageKey = Tuple
StageSpec = Tuple[StageKey, float]

#: stage families that form the NIC tier (everything else is switch fabric);
#: the tier-level fault factors of ``effective_inter_bandwidth`` use this split
_NIC_STAGE_FAMILIES = ("nic-up", "nic-down")


class SwitchFabricTopology(_PlacedTopology):
    """Path-based fabric: every inter-node pair resolves to a chain of stages.

    Concrete fabrics (:class:`FatTreeTopology`, :class:`DragonflyTopology`)
    describe their wiring by returning *candidate routes* — sequences of
    ``(stage id, capacity)`` pairs — between two nodes; this base class turns
    the chosen route into a cached :class:`LinkModel` whose ``stages`` chain
    the per-stage :class:`SharedLink` reservation queues, so transfers between
    different node pairs contend wherever their paths overlap (see the module
    docstring's fat-tree diagram).

    Parameters
    ----------
    ranks_per_node / placement:
        Rank placement, as for :class:`HierarchicalTopology`.
    intra_latency / intra_bandwidth:
        The dedicated shared-memory-class intra-node link.
    nic_latency / nic_bandwidth:
        Host injection: each NIC rail is a :class:`SharedLink` of this
        capacity; ``nic_latency`` is charged once per message (it dominates
        the per-hop switch latency, matching the calibration).
    nics_per_node:
        Parallel NIC rails per node (multi-NIC / rail-optimised hosts).
    rail_policy:
        ``"hash"`` — rail chosen by a deterministic hash of (src, dst) ranks;
        ``"stripe"`` — successive messages leaving a node round-robin the rails.
    routing:
        ``"minimal"`` — deterministic ECMP hash over the candidate routes;
        ``"adaptive"`` — candidate with the smallest reservation backlog.
    oversubscription:
        Host injection : switch capacity ratio; every inter-switch stage has
        capacity ``nic_bandwidth / oversubscription``.
    hop_latency:
        Extra latency per switch-to-switch hop.
    contention:
        ``"reservation"`` (default) — stages serialise bulk streams through
        the :class:`SharedLink` queue; ``"fair"`` — stages are
        :class:`FairShareLink` instances whose active flows re-divide
        bandwidth max-min fairly (see the module docstring).
    """

    def __init__(
        self,
        ranks_per_node: int = 1,
        placement: Optional[Sequence[int]] = None,
        intra_latency: float = DEFAULT_INTRA_LATENCY,
        intra_bandwidth: float = DEFAULT_INTRA_BANDWIDTH,
        nic_latency: float = DEFAULT_INTER_LATENCY,
        nic_bandwidth: float = DEFAULT_INTER_BANDWIDTH,
        nics_per_node: int = 1,
        rail_policy: str = RAIL_HASH,
        routing: str = ROUTE_MINIMAL,
        oversubscription: float = 1.0,
        hop_latency: float = DEFAULT_HOP_LATENCY,
        contention: str = CONTENTION_RESERVATION,
    ) -> None:
        super().__init__(ranks_per_node=ranks_per_node, placement=placement)
        ensure_non_negative(nic_latency, "nic_latency")
        ensure_positive(nic_bandwidth, "nic_bandwidth")
        ensure_positive(oversubscription, "oversubscription")
        ensure_non_negative(hop_latency, "hop_latency")
        ensure_in(rail_policy, (RAIL_HASH, RAIL_STRIPE), "rail_policy")
        ensure_in(routing, (ROUTE_MINIMAL, ROUTE_ADAPTIVE), "routing")
        if nics_per_node < 1:
            raise ValueError(f"nics_per_node must be >= 1, got {nics_per_node}")
        self._intra = LinkModel(latency=intra_latency, bandwidth=intra_bandwidth)
        self.nic_latency = float(nic_latency)
        self.nic_bandwidth = float(nic_bandwidth)
        self.rail_policy = rail_policy
        self.routing = routing
        self.hop_latency = float(hop_latency)
        self._nics_per_node = int(nics_per_node)
        self._oversubscription = float(oversubscription)
        #: capacity of every ordinary inter-switch stage
        self.switch_bandwidth = self.nic_bandwidth / self._oversubscription
        # route specs are contention-independent pure structure; the cache
        # survives with_contention clones (and is shared between them)
        self._route_cache: Dict[Tuple[int, int], Tuple[Tuple[StageSpec, ...], ...]] = {}
        self._init_contention(contention)

    def _init_contention(self, contention: str) -> None:
        """(Re)configure the contention discipline with fresh stage state."""
        ensure_in(contention, CONTENTION_MODES, "contention")
        self._contention = contention
        self._fair = FairShareRegistry() if contention == CONTENTION_FAIR else None
        self._contention_clones: Dict[str, "SwitchFabricTopology"] = {}
        # lazily built, reused across simulations (reset() clears state in place)
        self._stages: Dict[StageKey, SharedLink] = {}
        self._path_links: Dict[Tuple[StageKey, ...], LinkModel] = {}
        self._stripe_counters: Dict[int, int] = {}
        # fault overlays: stage-id prefix -> (capacity factor, failed); see
        # the module docstring's "Fault model" section.  Per contention clone
        # (a with_contention sibling starts healthy), cleared by reset().
        self._stage_faults: Dict[StageKey, Tuple[float, bool]] = {}
        # nominal (fault-free) capacity of every instantiated stage, recorded
        # at creation so overlays can be applied and removed losslessly
        self._stage_nominal: Dict[StageKey, float] = {}

    # ------------------------------------------------- fabric structure hooks

    @property
    @abstractmethod
    def n_fabric_nodes(self) -> int:
        """Number of host slots the fabric wires up."""

    @abstractmethod
    def _switch_routes(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[StageSpec, ...], ...]:
        """Candidate inter-switch stage chains between two distinct nodes.

        Each candidate excludes the NIC stages (the base class adds them);
        an empty chain means the nodes share a leaf switch and only the NICs
        contend.  Must return at least one candidate.
        """

    # --------------------------------------------------------- introspection

    @property
    def shares_uplinks(self) -> bool:
        return True

    @property
    def contention(self) -> str:
        return self._contention

    @property
    def fair_registry(self) -> Optional[FairShareRegistry]:
        return self._fair

    def with_contention(self, contention: str) -> "SwitchFabricTopology":
        return _contention_variant(self, contention)

    @property
    def oversubscription_ratio(self) -> float:
        return self._oversubscription

    @property
    def nics_per_node(self) -> int:
        return self._nics_per_node

    @property
    def intra(self) -> LinkModel:
        return self._intra

    def effective_inter_bandwidth(self) -> Optional[float]:
        if not self._stage_faults:
            return self._nominal_inter_bandwidth()
        # per-tier worst live overlay factor (see _tier_fault_factor): the
        # collective selector and the compression break-even gate read this,
        # so a degraded tier shifts their decisions with no code of their own
        return min(
            self.nic_bandwidth * self._tier_fault_factor(_NIC_STAGE_FAMILIES),
            self.switch_bandwidth * self._tier_fault_factor(None),
        )

    def route_of(self, src: int, dst: int, rail: Optional[int] = None) -> Tuple[StageKey, ...]:
        """Stage ids a ``src -> dst`` message crosses (pure snapshot).

        With ``routing="adaptive"`` the answer reflects the current backlog;
        on an idle fabric it is the deterministic first candidate.
        """
        if self.same_node(src, dst):
            return ()
        rail = self._hash_rail(src, dst) if rail is None else int(rail)
        spec = self._path_spec(self.node_of(src), self.node_of(dst), rail)
        return tuple(key for key, _ in spec)

    def stage(self, key: StageKey) -> Optional[SharedLink]:
        """The :class:`SharedLink` behind one stage id (``None`` if never used)."""
        return self._stages.get(key)

    def stage_loads(self) -> Dict[StageKey, int]:
        """In-flight transfer count per instantiated stage (load telemetry)."""
        return {key: stage.active for key, stage in self._stages.items()}

    # ---------------------------------------------------------------- faults

    def set_stage_fault(
        self, prefix: StageKey, factor: float = 1.0, failed: bool = False
    ) -> List[SharedLink]:
        """Install a fault overlay on every stage whose id starts with ``prefix``.

        ``factor`` scales the matched stages' nominal capacity (overlapping
        overlays multiply); ``failed=True`` additionally excludes the stages
        from routing (see the module docstring's "Fault model" section).  One
        overlay is live per prefix — setting the same prefix again replaces
        it.  Returns the already-instantiated stages whose capacity changed;
        ``contention="fair"`` callers must hand exactly these to
        :meth:`~repro.mpisim.fairshare.FairShareRegistry.apply_capacity_change`
        so in-flight fluid flows re-divide at the new rates.
        """
        key = tuple(prefix)
        if not key:
            raise ValueError("stage-fault prefix must name at least the stage family")
        if not factor > 0.0:
            raise ValueError(f"fault factor must be > 0, got {factor}")
        self._stage_faults[key] = (float(factor), bool(failed))
        return self._refresh_fault_capacities()

    def clear_stage_fault(self, prefix: StageKey) -> List[SharedLink]:
        """Remove the overlay installed under ``prefix`` (no-op if absent).

        Matched stages return to ``nominal x remaining overlays``; returns the
        stages whose capacity changed, exactly like :meth:`set_stage_fault`.
        """
        self._stage_faults.pop(tuple(prefix), None)
        return self._refresh_fault_capacities()

    def active_faults(self) -> Dict[StageKey, Tuple[float, bool]]:
        """Live fault overlays: ``{prefix: (factor, failed)}`` (a copy)."""
        return dict(self._stage_faults)

    def _fault_factor(self, key: StageKey) -> float:
        """Product of the live overlay factors matching one stage id."""
        factor = 1.0
        for prefix, (f, _) in self._stage_faults.items():
            if key[: len(prefix)] == prefix:
                factor *= f
        return factor

    def _is_failed(self, key: StageKey) -> bool:
        """Whether any live overlay marks this stage id failed."""
        for prefix, (_, failed) in self._stage_faults.items():
            if failed and key[: len(prefix)] == prefix:
                return True
        return False

    def _refresh_fault_capacities(self) -> List[SharedLink]:
        """Re-capacitate instantiated stages from nominal x live overlays.

        Also refreshes the cached path links' bottleneck bandwidth (windowed
        poll credits read it), so every timing input reflects the overlay set.
        Returns the stages whose capacity actually changed.
        """
        changed: List[SharedLink] = []
        for key, stage in self._stages.items():
            capacity = self._stage_nominal[key] * self._fault_factor(key)
            if capacity != stage.capacity:
                stage.capacity = capacity
                changed.append(stage)
        if changed:
            for link in self._path_links.values():
                link.bandwidth = min(s.capacity for s in link.stages)
        return changed

    def _tier_fault_factor(self, families: Optional[Tuple[str, ...]]) -> float:
        """Worst live (non-failed) overlay factor over a tier's stage families.

        ``families=None`` selects every non-NIC family (the switch tier).
        Deliberately conservative tier-level semantics: an overlay scoped to
        a single stage counts as degrading its whole tier, so the selector
        and the compression gate react to the worst case rather than
        averaging over paths they cannot enumerate.
        """
        worst = 1.0
        for prefix, (factor, failed) in self._stage_faults.items():
            if failed:
                continue
            family = str(prefix[0])
            in_tier = (
                family not in _NIC_STAGE_FAMILIES
                if families is None
                else family in families
            )
            if in_tier and factor < worst:
                worst = factor
        return worst

    def _nominal_inter_bandwidth(self) -> float:
        """Fault-free effective inter-node bandwidth of this fabric."""
        return min(self.nic_bandwidth, self.switch_bandwidth)

    def fault_degradation(self) -> float:
        if not self._stage_faults:
            return 1.0
        effective = self.effective_inter_bandwidth()
        assert effective is not None and effective > 0.0
        return self._nominal_inter_bandwidth() / effective

    # ------------------------------------------------------------ resolution

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.n_fabric_nodes):
            raise ValueError(
                f"node {node} outside the fabric's {self.n_fabric_nodes} host slots "
                f"({self.describe()}); grow the fabric or fix the placement"
            )

    def _stage_link(self, key: StageKey, capacity: float) -> SharedLink:
        stage = self._stages.get(key)
        if stage is None:
            stage_cls = FairShareLink if self._fair is not None else SharedLink
            self._stage_nominal[key] = float(capacity)
            if self._stage_faults:
                capacity = capacity * self._fault_factor(key)
            stage = stage_cls(capacity=capacity)
            self._stages[key] = stage
        return stage

    def _routes(self, src_node: int, dst_node: int) -> Tuple[Tuple[StageSpec, ...], ...]:
        cached = self._route_cache.get((src_node, dst_node))
        if cached is None:
            self._check_node(src_node)
            self._check_node(dst_node)
            cached = tuple(tuple(route) for route in self._switch_routes(src_node, dst_node))
            if not cached:
                raise RuntimeError(
                    f"{type(self).__name__} returned no route {src_node} -> {dst_node}"
                )
            self._route_cache[(src_node, dst_node)] = cached
        return cached

    def _choose_route(self, src_node: int, dst_node: int, rail: int) -> Tuple[StageSpec, ...]:
        routes = self._routes(src_node, dst_node)
        if self._stage_faults and any(f for _, f in self._stage_faults.values()):
            # failed stages are excluded from routing outright; degradation is
            # handled below as a soft penalty
            alive = tuple(
                route
                for route in routes
                if not any(self._is_failed(key) for key, _ in route)
            )
            if not alive:
                raise RuntimeError(
                    f"no surviving route {src_node} -> {dst_node}: every "
                    f"candidate crosses a failed stage ({self.describe()})"
                )
            routes = alive
        if len(routes) == 1:
            return routes[0]
        if self.routing == ROUTE_ADAPTIVE:
            # least-loaded candidate, judged by its hottest stage: reservation
            # backlog first, then placement history (flows routed at post time
            # have not reserved wire yet and are only visible as `assigned`);
            # min() is stable, so ties pick the first (minimal) candidate.
            # Probe without instantiating: a stage never routed over is idle,
            # and creating it here would leave phantom entries in stage_loads()
            if self._stage_faults:
                # rebalance around degraded stages first: a route crossing a
                # stage at 1/f of nominal rate ranks behind any healthy route,
                # then the usual backlog ordering applies
                def load(route: Tuple[StageSpec, ...]) -> Tuple[float, float, int]:
                    stages = [self._stages.get(key) for key, _ in route]
                    return (
                        max((1.0 / self._fault_factor(key) for key, _ in route), default=1.0),
                        max((s.busy_until for s in stages if s is not None), default=float("-inf")),
                        max((s.assigned for s in stages if s is not None), default=0),
                    )

            else:
                def load(route: Tuple[StageSpec, ...]) -> Tuple[float, int]:  # type: ignore[misc]
                    stages = [self._stages.get(key) for key, _ in route]
                    return (
                        max((s.busy_until for s in stages if s is not None), default=float("-inf")),
                        max((s.assigned for s in stages if s is not None), default=0),
                    )

            return min(routes, key=load)
        return routes[_mix(src_node, dst_node, rail) % len(routes)]

    def _hash_rail(self, src: int, dst: int) -> int:
        if self._nics_per_node == 1:
            return 0
        return _mix(src, dst) % self._nics_per_node

    def _stripe_rail(self, src_node: int) -> int:
        count = self._stripe_counters.get(src_node, 0)
        self._stripe_counters[src_node] = count + 1
        return count % self._nics_per_node

    def _path_spec(self, src_node: int, dst_node: int, rail: int) -> Tuple[StageSpec, ...]:
        """Full stage spec of the currently chosen path: NIC rails + switch route."""
        route = self._choose_route(src_node, dst_node, rail)
        return (
            (("nic-up", src_node, rail), self.nic_bandwidth),
            *route,
            (("nic-down", dst_node, rail), self.nic_bandwidth),
        )

    def _fabric_link(
        self, src_node: int, dst_node: int, rail: int, commit: bool = False
    ) -> LinkModel:
        spec = self._path_spec(src_node, dst_node, rail)
        signature = tuple(key for key, _ in spec)
        cached = self._path_links.get(signature)
        if cached is None:
            # bottleneck bandwidth from the live stages, not the spec: fault
            # overlays may have re-capacitated them (identical when healthy)
            stages = tuple(self._stage_link(key, capacity) for key, capacity in spec)
            cached = LinkModel(
                latency=self.nic_latency + self.hop_latency * (len(spec) - 2),
                bandwidth=min(stage.capacity for stage in stages),
                stages=stages,
                fair=self._fair,
            )
            self._path_links[signature] = cached
        if commit:
            # placement history feeds adaptive routing (see _choose_route)
            for stage in cached.shared_stages:
                stage.assigned += 1
        return cached

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        if self.same_node(src, dst):
            return self._intra
        return self._fabric_link(self.node_of(src), self.node_of(dst), self._hash_rail(src, dst))

    def _live_rail(self, src_node: int, dst_node: int, rail: int) -> int:
        """The chosen rail, advanced past failed NIC rails (deterministic)."""
        nics = self._nics_per_node
        for offset in range(nics):
            candidate = (rail + offset) % nics
            if not (
                self._is_failed(("nic-up", src_node, candidate))
                or self._is_failed(("nic-down", dst_node, candidate))
            ):
                return candidate
        raise RuntimeError(
            f"all {nics} NIC rail(s) between nodes {src_node} and {dst_node} "
            f"have failed ({self.describe()})"
        )

    def resolve_link(self, src: int, dst: int) -> Optional[LinkModel]:
        if self.same_node(src, dst):
            return self._intra
        src_node = self.node_of(src)
        dst_node = self.node_of(dst)
        if self.rail_policy == RAIL_STRIPE and self._nics_per_node > 1:
            rail = self._stripe_rail(src_node)
        else:
            rail = self._hash_rail(src, dst)
        if self._stage_faults:
            rail = self._live_rail(src_node, dst_node, rail)
        return self._fabric_link(src_node, dst_node, rail, commit=True)

    def reset(self) -> None:
        # in-place: cached stages / path links are reused across simulations
        if self._stage_faults:
            # a fresh simulation starts healthy; restore nominal capacities
            self._stage_faults.clear()
            self._refresh_fault_capacities()
        for stage in self._stages.values():
            stage.clear()
        self._stripe_counters.clear()
        if self._fair is not None:
            self._fair.reset()

    def _contention_suffix(self) -> str:
        return ", fair-share contention" if self._contention == CONTENTION_FAIR else ""


class FatTreeTopology(SwitchFabricTopology):
    """Three-level k-ary fat tree (``k`` pods of ``(k/2)^2`` hosts each).

    Hosts are numbered pod-major: host ``h`` sits in pod ``h // (k/2)^2`` under
    edge switch ``(h % (k/2)^2) // (k/2)``.  Between different edge switches
    there are ``k/2`` equal-cost routes in-pod (one per aggregation switch)
    and ``(k/2)^2`` across pods (aggregation x core); see the module
    docstring's diagram.  All inter-switch stages have capacity
    ``nic_bandwidth / oversubscription``, so ``oversubscription=2`` models the
    classic 2:1-tapered tree.
    """

    def __init__(self, k: int = 4, **kwargs) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree arity k must be an even integer >= 2, got {k}")
        self.k = int(k)
        self._half = self.k // 2
        self._hosts_per_pod = self._half * self._half
        super().__init__(**kwargs)

    @property
    def n_fabric_nodes(self) -> int:
        return self.k * self._hosts_per_pod

    def _locate(self, node: int) -> Tuple[int, int]:
        pod, rem = divmod(node, self._hosts_per_pod)
        return pod, rem // self._half

    def _switch_routes(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[StageSpec, ...], ...]:
        spod, sedge = self._locate(src_node)
        dpod, dedge = self._locate(dst_node)
        sw = self.switch_bandwidth
        if (spod, sedge) == (dpod, dedge):
            return ((),)  # same edge switch: only the NIC stages contend
        if spod == dpod:
            return tuple(
                (
                    (("ft-up", spod, sedge, agg), sw),
                    (("ft-down", dpod, agg, dedge), sw),
                )
                for agg in range(self._half)
            )
        routes = []
        for agg in range(self._half):
            for offset in range(self._half):
                core = agg * self._half + offset
                routes.append(
                    (
                        (("ft-up", spod, sedge, agg), sw),
                        (("ft-agg-core", spod, agg, core), sw),
                        (("ft-core-agg", core, dpod, agg), sw),
                        (("ft-down", dpod, agg, dedge), sw),
                    )
                )
        return tuple(routes)

    def describe(self) -> str:
        return (
            f"fat-tree (k={self.k}, {self.n_fabric_nodes} hosts, "
            f"{self.ranks_per_node} ranks/node, {self._nics_per_node} NIC rail(s), "
            f"{self._oversubscription:g}:1 oversubscribed, {self.routing} routing"
            f"{self._contention_suffix()})"
        )


class DragonflyTopology(SwitchFabricTopology):
    """Dragonfly: all-to-all router groups joined by one global link per pair.

    ``n_groups`` groups of ``routers_per_group`` routers host
    ``nodes_per_router`` nodes each.  Routers within a group are fully
    connected by local links; each ordered group pair shares one directed
    global link, attached at gateway router ``dst_group % routers_per_group``
    of the source group.  Minimal routes are local -> global -> local; with
    ``routing="adaptive"``, Valiant detours via ``valiant_candidates``
    intermediate groups are offered and the least-backlogged candidate wins —
    the classic remedy when one global link saturates.

    ``local_bandwidth`` defaults to the NIC rate and ``global_bandwidth`` to
    ``nic_bandwidth / oversubscription`` (global links are the tapered tier).
    """

    def __init__(
        self,
        n_groups: int = 4,
        routers_per_group: int = 4,
        nodes_per_router: int = 1,
        local_bandwidth: Optional[float] = None,
        global_bandwidth: Optional[float] = None,
        valiant_candidates: int = 2,
        **kwargs,
    ) -> None:
        if n_groups < 1 or routers_per_group < 1 or nodes_per_router < 1:
            raise ValueError(
                "n_groups, routers_per_group and nodes_per_router must all be >= 1"
            )
        if valiant_candidates < 0:
            raise ValueError(f"valiant_candidates must be >= 0, got {valiant_candidates}")
        self.n_groups = int(n_groups)
        self.routers_per_group = int(routers_per_group)
        self.nodes_per_router = int(nodes_per_router)
        self.valiant_candidates = int(valiant_candidates)
        super().__init__(**kwargs)
        self.local_bandwidth = (
            float(local_bandwidth) if local_bandwidth is not None else self.nic_bandwidth
        )
        self.global_bandwidth = (
            float(global_bandwidth) if global_bandwidth is not None else self.switch_bandwidth
        )
        ensure_positive(self.local_bandwidth, "local_bandwidth")
        ensure_positive(self.global_bandwidth, "global_bandwidth")

    @property
    def n_fabric_nodes(self) -> int:
        return self.n_groups * self.routers_per_group * self.nodes_per_router

    def _nominal_inter_bandwidth(self) -> float:
        return min(self.nic_bandwidth, self.local_bandwidth, self.global_bandwidth)

    def effective_inter_bandwidth(self) -> Optional[float]:
        if not self._stage_faults:
            return self._nominal_inter_bandwidth()
        return min(
            self.nic_bandwidth * self._tier_fault_factor(_NIC_STAGE_FAMILIES),
            self.local_bandwidth * self._tier_fault_factor(("df-local",)),
            self.global_bandwidth * self._tier_fault_factor(("df-global",)),
        )

    def _locate(self, node: int) -> Tuple[int, int]:
        router = node // self.nodes_per_router
        group, local = divmod(router, self.routers_per_group)
        return group, local

    def _gateway(self, group: int, other_group: int) -> int:
        return other_group % self.routers_per_group

    def _hop_chain(
        self, src_group: int, src_router: int, dst_group: int, dst_router: int
    ) -> Tuple[StageSpec, ...]:
        """Minimal router-level chain between two routers (may be empty)."""
        if src_group == dst_group:
            if src_router == dst_router:
                return ()
            return ((("df-local", src_group, src_router, dst_router), self.local_bandwidth),)
        chain: List[StageSpec] = []
        gw_out = self._gateway(src_group, dst_group)
        gw_in = self._gateway(dst_group, src_group)
        if src_router != gw_out:
            chain.append((("df-local", src_group, src_router, gw_out), self.local_bandwidth))
        chain.append((("df-global", src_group, dst_group), self.global_bandwidth))
        if gw_in != dst_router:
            chain.append((("df-local", dst_group, gw_in, dst_router), self.local_bandwidth))
        return tuple(chain)

    def _switch_routes(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[StageSpec, ...], ...]:
        sgroup, srouter = self._locate(src_node)
        dgroup, drouter = self._locate(dst_node)
        minimal = self._hop_chain(sgroup, srouter, dgroup, drouter)
        routes = [minimal]
        if self.routing == ROUTE_ADAPTIVE and sgroup != dgroup:
            # Valiant detours: bounce through an intermediate group's gateway
            added = 0
            for step in range(1, self.n_groups):
                mid = (sgroup + dgroup + step) % self.n_groups
                if mid in (sgroup, dgroup):
                    continue
                via = self._gateway(mid, sgroup)
                routes.append(
                    self._hop_chain(sgroup, srouter, mid, via)
                    + self._hop_chain(mid, via, dgroup, drouter)
                )
                added += 1
                if added >= self.valiant_candidates:
                    break
        return tuple(routes)

    def describe(self) -> str:
        return (
            f"dragonfly ({self.n_groups} groups x {self.routers_per_group} routers x "
            f"{self.nodes_per_router} nodes, {self.ranks_per_node} ranks/node, "
            f"{self._nics_per_node} NIC rail(s), global "
            f"{self.global_bandwidth / 1e9:.2f} GB/s, {self.routing} routing"
            f"{self._contention_suffix()})"
        )
