"""A finished run leaves no reference cycle behind.

Its state (rank programs, transfers, fabric bookkeeping, decoded arrays)
is then freed by reference counting as soon as the run returns, instead of
piling up until the cyclic garbage collector runs.
"""

import gc

import numpy as np
import pytest

from repro.api import Cluster
from repro.workload import JobMix, WorkloadEngine


def _compressed_allreduce():
    comm = Cluster.from_preset("fat_tree", nodes=4).communicator(4)
    rng = np.random.default_rng(0)
    inputs = [rng.standard_normal(3000) for _ in range(4)]
    return comm.allreduce(inputs, compression="on")


def _fair_ring_allreduce():
    comm = Cluster.from_preset("fat_tree", nodes=4, contention="fair").communicator(4)
    rng = np.random.default_rng(1)
    inputs = [rng.standard_normal(3000) for _ in range(4)]
    return comm.allreduce(inputs, algorithm="ring", compression="off")


def _workload_run():
    cluster = Cluster.from_preset("fat_tree", nodes=8, contention="fair")
    jobs = JobMix(4, 500.0, (2, 4)).generate(3)
    return WorkloadEngine(cluster, policy="spread", seed=3).run(jobs)


@pytest.mark.parametrize(
    "scenario", [_compressed_allreduce, _fair_ring_allreduce, _workload_run]
)
def test_run_leaves_no_cyclic_garbage(scenario):
    scenario()  # first call: lazy imports and caches settle outside the check
    gc.collect()
    gc.disable()
    try:
        result = scenario()
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()
