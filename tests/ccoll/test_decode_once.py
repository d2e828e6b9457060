"""Decode-once in the data-movement framework.

Every forwarded ``CompressedMessage`` of C-Allgather and C-Bcast is decoded
by the codec once; each consumer gets its own copy, and each is still
charged its own modelled decompression time.  The makespans and value
digests below were recorded before decode-once existed (one codec decode
per consumer), so they pin that nothing observable changed.
"""

import hashlib

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.compression.base import Compressor
from repro.mpisim import SharedUplinkTopology

P = 5


def _inputs():
    rng = np.random.default_rng(2024)
    t = np.linspace(0.0, 9.0, 3000)
    return [
        (np.sin(t + rank) + 0.01 * rng.standard_normal(t.size)).astype(np.float32)
        for rank in range(P)
    ]


def _digest(values):
    h = hashlib.sha256()
    for value in values:
        for array in value if isinstance(value, list) else [value]:
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.fixture
def decode_calls(monkeypatch):
    """Count codec decodes (``Compressor.decompress`` calls)."""
    calls = []
    original = Compressor.decompress

    def counted(self, compressed):
        calls.append(1)
        return original(self, compressed)

    monkeypatch.setattr(Compressor, "decompress", counted)
    return calls


def _comm():
    return Cluster.from_preset("fat_tree", nodes=8).communicator(P)


class TestDecodeCount:
    def test_allgather_decodes_each_block_once(self, decode_calls):
        _comm().allgather(_inputs(), compression="on")
        assert len(decode_calls) == P  # was P * (P - 1)

    def test_bcast_decodes_the_buffer_once(self, decode_calls):
        _comm().bcast(_inputs()[2], root=2, compression="on")
        assert len(decode_calls) == 1  # was P - 1


class TestOwnCopies:
    def test_allgather_outputs_are_independent(self):
        out = _comm().allgather(_inputs(), compression="on").values
        for a in range(P):
            for b in range(P):
                for j in range(P):
                    if a != b and j not in (a, b):
                        assert not np.shares_memory(out[a][j], out[b][j])
        before = [[block.copy() for block in blocks] for blocks in out]
        out[0][1][:] = 123.0
        for rank in range(1, P):
            for block, kept in zip(out[rank], before[rank]):
                np.testing.assert_array_equal(block, kept)

    def test_bcast_outputs_are_independent(self):
        out = _comm().bcast(_inputs()[2], root=2, compression="on").values
        receivers = [rank for rank in range(P) if rank != 2]
        before = {rank: out[rank].copy() for rank in receivers}
        out[receivers[0]][:] = -7.0
        for rank in receivers[1:]:
            np.testing.assert_array_equal(out[rank], before[rank])
            assert not np.shares_memory(out[rank], out[receivers[0]])


class TestUnchangedOutcome:
    @pytest.mark.parametrize(
        "collective,makespan,digest",
        [
            (
                "allgather",
                0.0002358068296786045,
                "8cf5c14514aa986620b6ea22e2ff96fabf4becf687a9c3fe7836ba5768aa23c2",
            ),
            (
                "bcast",
                8.258527315885199e-05,
                "cd70f1115cc670ad9caa126e7684dfe23307e35f0847684d351291f39e3346e8",
            ),
            (
                "allreduce",
                0.00032524150165547875,
                "a646415785c469048af0cc33908556c02d949183c0aba3e588cda7696c83d9eb",
            ),
        ],
    )
    def test_values_and_makespan_bit_identical(self, collective, makespan, digest):
        comm, xs = _comm(), _inputs()
        if collective == "bcast":
            outcome = comm.bcast(xs[2], root=2, compression="on")
        else:
            outcome = getattr(comm, collective)(xs, compression="on")
        assert outcome.sim.total_time == makespan
        assert _digest(outcome.values) == digest

    def test_topology_aware_allgather_stage(self):
        """The leader ring of the topology-aware C-Allreduce shares decodes too."""
        config = CCollConfig(error_bound=1e-3, size_multiplier=64.0)
        cluster = Cluster(topology=SharedUplinkTopology(ranks_per_node=2), config=config)
        xs = _inputs()
        inputs = [np.tile(x, 3) * 1e3 for x in xs] + [np.tile(xs[0], 3) * 1e3] * 3
        outcome = cluster.communicator(8).allreduce(inputs, compression="auto")
        assert outcome.inter_compressed is True
        assert outcome.sim.total_time == 0.01119062064302887
        assert _digest(outcome.values) == (
            "ac9cd79517637d6a99b826b98baba21e77c10e13cd600f1aaed19d60c0df36b3"
        )


def test_adapter_releases_the_shared_decode_after_the_last_consumer(decode_calls):
    from repro.ccoll import CompressionAdapter

    config = CCollConfig()
    adapter = CompressionAdapter(config.make_codec(), config.context())
    message = adapter.compress(_inputs()[0])
    copies = [adapter.decompress(message, consumers=3) for _ in range(3)]
    assert len(decode_calls) == 1
    assert message.shared_decode == []
    for i, a in enumerate(copies):
        np.testing.assert_array_equal(a, copies[0])
        for b in copies[i + 1 :]:
            assert not np.shares_memory(a, b)
