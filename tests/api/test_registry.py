"""Plan equivalence across the collective registry.

The workload layer compiles a job by capturing plans and running their
factories on its own engine, so a captured plan must simulate exactly like
the direct ``Communicator`` call: same values, makespan and bytes sent, for
every entry of :data:`repro.api.registry.REGISTRY`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Cluster
from repro.api.registry import REGISTRY
from repro.collectives.selection import ALLREDUCE_ALGORITHMS
from repro.mpisim import run_simulation


def _vectors(n_ranks, n=1536):
    x = np.linspace(0.0, 12.0, n)
    return [(np.sin(x + 0.3 * r) + 0.01 * r).astype(np.float32) for r in range(n_ranks)]


def _blocks(n_ranks, n=64):
    rng = np.random.default_rng(11)
    return [[rng.standard_normal(n) for _ in range(n_ranks)] for _ in range(n_ranks)]


#: registry entry -> (call issuing it, expected compression trace or None)
CALLS = {
    **{
        ("allreduce", name): (lambda c, x, name=name: c.allreduce(x, algorithm=name), "AD")
        for name in ALLREDUCE_ALGORITHMS
    },
    ("allreduce", "DI"): (lambda c, x: c.allreduce(x, compression="di"), "DI"),
    ("allreduce", "ND"): (lambda c, x: c.allreduce(x, compression="nd"), "ND"),
    ("allreduce", "Overlap"): (lambda c, x: c.allreduce(x, compression="overlap"), "Overlap"),
    ("allreduce", "topology_aware"): (
        lambda c, x: c.allreduce(x, compression="auto"),
        "topology_aware",
    ),
    ("allgather", "AD"): (lambda c, x: c.allgather(x, compression="off"), "AD"),
    ("allgather", "DI"): (lambda c, x: c.allgather(x, compression="di"), "DI"),
    ("allgather", "Overlap"): (lambda c, x: c.allgather(x, compression="on"), "Overlap"),
    ("bcast", "AD"): (lambda c, x: c.bcast(x[1], root=1, compression="off"), "AD"),
    ("bcast", "DI"): (lambda c, x: c.bcast(x[1], root=1, compression="di"), "DI"),
    ("bcast", "Overlap"): (lambda c, x: c.bcast(x[1], root=1, compression="on"), "Overlap"),
    ("scatter", "AD"): (lambda c, x: c.scatter(x, root=2, compression="off"), "AD"),
    ("scatter", "DI"): (lambda c, x: c.scatter(x, root=2, compression="di"), "DI"),
    ("scatter", "Overlap"): (lambda c, x: c.scatter(x, root=2, compression="on"), "Overlap"),
    ("reduce_scatter", "AD"): (lambda c, x: c.reduce_scatter(x, compression="off"), "AD"),
    ("reduce_scatter", "ND"): (
        lambda c, x: c.reduce_scatter(x, compression="on", overlap=False),
        "ND",
    ),
    ("reduce_scatter", "Overlap"): (
        lambda c, x: c.reduce_scatter(x, compression="on", overlap=True),
        "Overlap",
    ),
    ("gather", "AD"): (lambda c, x: c.gather(x, root=1), None),
    ("reduce", "AD"): (lambda c, x: c.reduce(x, root=2), None),
    ("alltoall", "AD"): (lambda c, x: c.alltoall(_blocks(len(x))), None),
    ("barrier", "AD"): (lambda c, x: c.barrier(), None),
}


def _assert_same(a, b):
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for left, right in zip(a, b):
            _assert_same(left, right)
    elif a is None:
        assert b is None
    else:
        np.testing.assert_array_equal(a, b)
        assert np.asarray(a).dtype == np.asarray(b).dtype


def test_every_registry_entry_is_exercised():
    assert set(CALLS) == set(REGISTRY)


@pytest.mark.parametrize("n_ranks", [3, 4])
@pytest.mark.parametrize("key", sorted(CALLS), ids="-".join)
def test_captured_plan_simulates_like_the_direct_call(key, n_ranks):
    # two ranks per node, so the auto route takes the topology-aware schedule
    # and the hierarchical allreduce has node groups to work with
    cluster = Cluster.from_preset("shared_uplink", ranks_per_node=2)
    call, route = CALLS[key]
    inputs = _vectors(n_ranks)

    comm = cluster.communicator(n_ranks)
    direct = call(comm, inputs)
    if route is not None:
        assert comm.last_compression == route

    plan = comm.capture(lambda c: call(c, inputs))
    assert plan.n_ranks == n_ranks
    sim = run_simulation(
        plan.n_ranks, plan.factory, network=cluster.network, topology=cluster.topology
    )
    assert sim.total_time == direct.sim.total_time
    assert sim.total_bytes_sent == direct.sim.total_bytes_sent
    _assert_same(sim.rank_values, direct.values)


def test_capture_runs_nothing_and_leaves_the_traces_alone():
    comm = Cluster().communicator(4)
    plan = comm.capture(lambda c: c.allreduce(_vectors(4), compression="on"))
    assert callable(plan.factory) and plan.compression == "Overlap"
    assert comm.algorithm_trace == [] and comm.compression_trace == []
