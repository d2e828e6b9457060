"""The fabric hook surface: audits observe through subscribers, never patches."""

import pytest

from repro.api import Cluster
from repro.mpisim.audit import (
    ALLOCATION_SUBSCRIBERS,
    RESERVATION_SUBSCRIBERS,
    audited,
    subscribed,
)
from repro.mpisim.fairshare import FairShareRegistry
from repro.mpisim.topology import FairShareLink, SharedLink
from repro.workload import CollectiveCall, JobSpec, WorkloadEngine

ORIGINAL_RESERVE = SharedLink.reserve
ORIGINAL_OPEN_FLOW = FairShareRegistry.open_flow


class OvercommittedLink(FairShareLink):
    def allocated_rate(self):
        return self.capacity * 2.0


def _methods():
    return SharedLink.reserve, FairShareRegistry.open_flow


def _unpatched(methods) -> bool:
    reserve, open_flow = methods
    return reserve is ORIGINAL_RESERVE and open_flow is ORIGINAL_OPEN_FLOW


def test_audits_nest_and_unsubscribe_when_the_body_raises():
    with pytest.raises(RuntimeError, match="inside the audit"):
        with audited() as outer:
            assert _unpatched(_methods())
            with audited() as inner:
                assert _unpatched(_methods())
                # a capacity overlap: the stage rewinds without a reset
                link = SharedLink(capacity=100.0)
                link.reserve(0.0, 100.0)
                link.busy_until = 0.0
                link.reserve(0.0, 100.0)
                FairShareRegistry().open_flow(
                    [OvercommittedLink(capacity=100.0)], 0.0, 1000.0
                )
            raise RuntimeError("inside the audit")
    assert inner == outer
    assert {invariant for invariant, _ in inner} == {"capacity", "fair_share"}
    assert RESERVATION_SUBSCRIBERS == []
    assert ALLOCATION_SUBSCRIBERS == []


def test_workload_run_observes_the_fabric_without_patching_it():
    seen = []

    def spy(kind, stage, finish, nbytes):
        seen.append(_methods())

    cluster = Cluster.from_preset(
        "fat_tree", nodes=8, ranks_per_node=2, contention="fair"
    )
    specs = [
        JobSpec(job_id=f"j{i}", n_ranks=4, arrival=0.0, seed=i,
                calls=(CollectiveCall(msg_elems=4096),))
        for i in range(2)
    ]
    with subscribed(RESERVATION_SUBSCRIBERS, spy):
        report = WorkloadEngine(cluster, policy="spread", seed=0).run(
            specs, baseline=False
        )
    assert seen and all(_unpatched(methods) for methods in seen)
    assert report.stage_utilization
    assert RESERVATION_SUBSCRIBERS == []
