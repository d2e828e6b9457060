"""Tests for the topology-aware C-Allreduce (compression on inter-node hops only).

Reached through the facade as ``Communicator.allreduce(compression="auto")`` on
a multi-rank-per-node cluster (the facade routes such clusters to the
topology-aware schedule, whose break-even gate decides whether the inter-node
hops compress).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.mpisim import HierarchicalTopology, SharedUplinkTopology


def _smooth_inputs(n_ranks: int, length: int = 4096):
    base = np.sin(np.linspace(0, 20, length))
    return [base * (1.0 + 1e-6 * rank) for rank in range(n_ranks)]


def _comm(n_ranks, topology, config=None):
    return Cluster(topology=topology, config=config).communicator(n_ranks)


class TestCorrectness:
    @pytest.mark.parametrize("n_ranks,ranks_per_node", [(8, 4), (12, 4), (9, 3), (6, 6), (5, 1)])
    def test_result_within_hop_bounded_error(self, n_ranks, ranks_per_node):
        error_bound = 1e-3
        inputs = _smooth_inputs(n_ranks)
        expected = np.sum(inputs, axis=0)
        topology = HierarchicalTopology(ranks_per_node=ranks_per_node)
        comm = _comm(n_ranks, topology, CCollConfig(error_bound=error_bound))
        outcome = comm.allreduce(inputs, compression="auto")
        # lossy hops are bounded by the inter-node ring: L-1 reduce-scatter
        # re-compressions plus one allgather round trip, each bounded by eb,
        # on partial sums of up to n_ranks terms.  The dedicated inter-node
        # links are faster than the codec break-even, so single-rank-per-node
        # placements may legitimately skip compression entirely — the bound
        # below holds either way.
        n_nodes = topology.n_nodes(n_ranks)
        tolerance = (n_nodes + 2) * error_bound * max(1, n_nodes)
        for rank in range(n_ranks):
            assert np.max(np.abs(outcome.value(rank) - expected)) <= tolerance

    def test_single_node_is_lossless(self):
        """All ranks on one node: no inter-node hop, so no compression at all."""
        inputs = _smooth_inputs(6)
        topology = HierarchicalTopology(ranks_per_node=6)
        outcome = _comm(6, topology).allreduce(inputs, compression="auto")
        np.testing.assert_allclose(
            outcome.value(0), np.sum(inputs, axis=0), rtol=1e-12, atol=1e-12
        )
        assert outcome.compression_ratio is None

    def test_compression_happens_only_on_leaders(self):
        """Non-leader ranks never touch the codec: their adapters stay unused."""
        inputs = _smooth_inputs(8)
        topology = HierarchicalTopology(ranks_per_node=4)
        comm = _comm(8, topology)
        outcome = comm.allreduce(inputs, compression="auto")
        assert comm.last_compression == "topology_aware"
        assert outcome.compression_ratio is not None
        assert outcome.compression_ratio > 1.0


class TestPerformance:
    def test_beats_uncompressed_ring_on_shared_uplinks(self):
        n_ranks = 8
        inputs = [arr * 1e3 for arr in _smooth_inputs(n_ranks, length=64 * 1024)]
        config = CCollConfig(error_bound=1e-3, size_multiplier=64.0)

        comm = _comm(n_ranks, SharedUplinkTopology(ranks_per_node=4), config)
        compressed = comm.allreduce(inputs, compression="auto")
        ring = comm.allreduce(inputs, algorithm="ring", compression="off")
        assert compressed.inter_compressed is True
        assert compressed.total_time < ring.total_time
