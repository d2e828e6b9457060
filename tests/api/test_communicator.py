"""Behavioural tests for :class:`repro.api.Communicator`.

``test_registry.py`` pins that every collective's captured plan simulates
like the direct call; these tests cover the facade's *own* logic: algorithm
tracing (proving ``algorithm="auto"`` consults ``select_algorithm``), the
shared compression alias table, the ``compression="auto"`` gate routing, and
argument validation.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.collectives.selection as selection
from repro.api import Cluster, Communicator
from repro.ccoll import CCollConfig, VARIANT_ALIASES, canonical_variant
from repro.collectives.selection import RING_MIN_BYTES, select_algorithm
from repro.compression import UnsupportedDataError
from repro.mpisim import SharedUplinkTopology
from repro.perfmodel import line_rate_network
from repro.workload.placement import PlacementView


def _vectors(n_ranks, n=256, dtype=np.float64):
    rng = np.random.default_rng(3)
    return [rng.standard_normal(n).astype(dtype) for _ in range(n_ranks)]


class TestAlgorithmTrace:
    def test_auto_provably_consults_select_algorithm(self, monkeypatch):
        """The facade's "auto" goes through select_algorithm — asserted by
        instrumenting the selector and matching its answer to the trace."""
        calls = []
        real = selection.select_algorithm

        def spy(nbytes, n_ranks, topology=None):
            choice = real(nbytes, n_ranks, topology)
            calls.append((nbytes, n_ranks, choice))
            return choice

        monkeypatch.setattr(selection, "select_algorithm", spy)
        comm = Cluster().communicator(4)
        comm.allreduce(_vectors(4))
        assert len(calls) == 1
        nbytes, n_ranks, choice = calls[0]
        assert (nbytes, n_ranks) == (256 * 8, 4)
        assert comm.last_algorithm == choice

    def test_trace_follows_selector_across_sizes(self):
        comm = Cluster().communicator(8)
        small = _vectors(8, n=16)
        comm.allreduce(small)
        assert comm.last_algorithm == select_algorithm(16 * 8, 8, None)
        # size_multiplier pushes the virtual size over the ring threshold
        big_cluster = Cluster(size_multiplier=float(RING_MIN_BYTES)).communicator(8)
        big_cluster.allreduce(_vectors(8, n=16))
        assert big_cluster.last_algorithm == "ring"

    def test_explicit_algorithm_recorded(self):
        comm = Cluster().communicator(4)
        comm.allreduce(_vectors(4), algorithm="rabenseifner")
        assert comm.last_algorithm == "rabenseifner"
        assert comm.algorithm_trace == ["rabenseifner"]


class TestCompressionDispatch:
    def test_alias_table_is_shared_with_variants(self):
        """The facade resolves compression through the exact table the Table V
        harness uses — including the facade's own off/on switches."""
        assert VARIANT_ALIASES["off"] == "AD"
        assert VARIANT_ALIASES["on"] == "Overlap"
        comm = Cluster().communicator(2)
        vecs = _vectors(2)
        for alias, canonical in (("cpr-p2p", "DI"), ("novel_design", "ND"), ("on", "Overlap")):
            assert canonical_variant(alias) == canonical
            comm.allreduce(vecs, compression=alias)
            assert comm.last_compression == canonical

    def test_on_switch_honors_config_use_overlap(self):
        """compression="on" means "the framework as configured": with
        use_overlap=False it runs the non-overlapped ND schedule (like the
        legacy run_c_allreduce did), while the explicit "overlap" spelling
        still pins the overlapped Table V variant."""
        vecs = _vectors(4, n=2048, dtype=np.float32)
        no_overlap = Cluster(config=CCollConfig(use_overlap=False)).communicator(4)
        no_overlap.allreduce(vecs, compression="on")
        assert no_overlap.last_compression == "ND"
        no_overlap.allreduce(vecs, compression="overlap")
        assert no_overlap.last_compression == "Overlap"
        default = Cluster().communicator(4)
        default.allreduce(vecs, compression="on")
        assert default.last_compression == "Overlap"

    def test_bool_switches(self):
        comm = Cluster().communicator(2)
        vecs = _vectors(2)
        comm.allreduce(vecs, compression=False)
        assert comm.last_compression == "AD"
        comm.allreduce(vecs, compression=True)
        assert comm.last_compression == "Overlap"

    def test_auto_gate_flat_calibrated_compresses(self):
        """On the calibrated (slow) fabric the break-even gate says compress."""
        comm = Cluster().communicator(4)
        outcome = comm.allreduce(_vectors(4, dtype=np.float32), compression="auto")
        assert comm.last_compression == "Overlap"
        assert outcome.inter_compressed is True

    def test_auto_gate_line_rate_stays_uncompressed(self):
        """On a line-rate fabric compression cannot pay; auto falls back to the
        tuning-table baseline and reports an uncompressed outcome."""
        comm = Cluster(network=line_rate_network()).communicator(4)
        outcome = comm.allreduce(_vectors(4, dtype=np.float32), compression="auto")
        assert comm.last_compression == "AD"
        assert outcome.inter_compressed is False
        assert outcome.compression_ratio is None

    def test_auto_routes_colocated_ranks_to_topology_aware(self):
        cluster = Cluster(topology=SharedUplinkTopology(ranks_per_node=4))
        comm = cluster.communicator(8)
        outcome = comm.allreduce(_vectors(8, dtype=np.float32), compression="auto")
        assert comm.last_compression == "topology_aware"
        assert comm.last_algorithm == "hierarchical"
        assert outcome.inter_compressed in (True, False)

    def test_movement_collectives_accept_auto(self):
        comm = Cluster(config=CCollConfig(error_bound=1e-3)).communicator(4)
        blocks = _vectors(4, n=2048, dtype=np.float32)
        outcome = comm.allgather(blocks, compression="auto")
        # calibrated fabric -> the gate compresses
        assert comm.last_compression == "Overlap"
        assert outcome.compression_ratio is not None


class TestValidation:
    def test_algorithm_with_compression_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            Cluster().communicator(2).allreduce(_vectors(2), algorithm="ring", compression="on")

    def test_unknown_compression_rejected(self):
        with pytest.raises(ValueError, match="unknown allreduce variant"):
            Cluster().communicator(2).allreduce(_vectors(2), compression="zip")

    def test_nd_rejected_outside_allreduce(self):
        with pytest.raises(ValueError, match="not available for allgather"):
            Cluster().communicator(2).allgather(_vectors(2), compression="nd")

    def test_di_rejected_for_reduce_scatter(self):
        with pytest.raises(ValueError, match="not available for reduce_scatter"):
            Cluster().communicator(2).reduce_scatter(_vectors(2), compression="di")

    def test_gather_reduce_have_no_compression_parameter(self):
        import inspect

        from repro.api import Communicator

        assert "compression" not in inspect.signature(Communicator.gather).parameters
        assert "compression" not in inspect.signature(Communicator.reduce).parameters


class TestFabricSize:
    def test_too_many_ranks_rejected_when_the_session_opens(self):
        """A 16-host fat tree cannot seat 32 one-per-node ranks: the session
        refuses up front instead of failing at the first inter-node send."""
        cluster = Cluster.from_preset("fat_tree", nodes=8)
        with pytest.raises(ValueError, match="16 host slots"):
            cluster.communicator(32)
        assert cluster.communicator(16).n_ranks == 16

    def test_flat_topologies_stay_unbounded(self):
        assert Cluster().communicator(512).n_ranks == 512
        shared = Cluster(topology=SharedUplinkTopology(ranks_per_node=4))
        assert shared.communicator(512).n_ranks == 512

    def test_placement_view_is_checked_against_its_base_fabric(self):
        cluster = Cluster.from_preset("fat_tree", nodes=8)
        fits = cluster.with_updates(topology=PlacementView(cluster.topology, [14, 15]))
        assert Communicator(fits, 2).n_ranks == 2
        beyond = cluster.with_updates(topology=PlacementView(cluster.topology, [15, 16]))
        with pytest.raises(ValueError, match="host slots"):
            Communicator(beyond, 2)


def _nan_rank_inputs(n_ranks):
    vectors = _vectors(n_ranks, dtype=np.float32)
    vectors[0][3] = np.nan
    vectors[n_ranks - 1][7] = np.inf
    return vectors


_COMPRESSED_CALLS = {
    "allreduce": lambda comm, x: comm.allreduce(x, compression="on"),
    "allgather": lambda comm, x: comm.allgather(x, compression="on"),
    "bcast": lambda comm, x: comm.bcast(x[0], compression="on"),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("op", sorted(_COMPRESSED_CALLS))
    def test_rejected_before_a_compressed_run(self, op):
        comm = Cluster().communicator(4)
        with pytest.raises(UnsupportedDataError, match="NaN or Inf"):
            _COMPRESSED_CALLS[op](comm, _nan_rank_inputs(4))
        assert comm.compression_trace == []  # nothing ran

    def test_uncompressed_run_accepts_non_finite_input(self):
        outcome = Cluster().communicator(4).allreduce(_nan_rank_inputs(4), algorithm="ring")
        assert np.isnan(outcome.value(0)[3]) and np.isinf(outcome.value(0)[7])

    def test_declined_gate_accepts_non_finite_input(self):
        comm = Cluster(network=line_rate_network()).communicator(4)
        outcome = comm.allreduce(_nan_rank_inputs(4), compression="auto")
        assert comm.last_compression == "AD"
        assert np.isnan(outcome.value(1)[3])


class TestSessionState:
    def test_traces_accumulate_in_order(self):
        comm = Cluster().communicator(2)
        vecs = _vectors(2)
        comm.allreduce(vecs, algorithm="ring")
        comm.allreduce(vecs, compression="di")
        assert comm.algorithm_trace == ["ring", "ring"]
        assert comm.compression_trace == ["AD", "DI"]

    def test_reduce_scatter_overlap_switch(self):
        comm = Cluster(
            config=CCollConfig(error_bound=1e-3), size_multiplier=64.0
        ).communicator(4)
        x = np.linspace(0, 20, 65536)
        vecs = [(np.sin(x) * (1 + 1e-6 * r)).astype(np.float32) for r in range(4)]
        overlapped = comm.reduce_scatter(vecs, compression="on", overlap=True)
        plain = comm.reduce_scatter(vecs, compression="on", overlap=False)
        # PIPE-SZx pipelining hides the reduce-scatter waits
        assert overlapped.total_time < plain.total_time
        assert overlapped.sim.category_seconds("Wait") < 0.1 * plain.sim.category_seconds("Wait")
        # the trace reflects the schedule that actually ran
        assert comm.compression_trace[-2:] == ["Overlap", "ND"]
        no_overlap_comm = Cluster(
            config=CCollConfig(error_bound=1e-3, use_overlap=False)
        ).communicator(4)
        no_overlap_comm.reduce_scatter(vecs, compression="on")
        assert no_overlap_comm.last_compression == "ND"

    def test_empty_inputs_raise_value_error_on_auto(self):
        with pytest.raises(ValueError, match="expected 2 per-rank arrays, got 0"):
            Cluster().communicator(2).allreduce([])
