"""Fabric hooks and the two invariant audits built on them.

The fabric publishes state changes to two module-level subscriber lists;
nothing is patched.  Add a callable with :func:`subscribed`:

* :data:`RESERVATION_SUBSCRIBERS` — ``SharedLink.reserve`` calls
  ``subscriber("reserve", stage, finish, nbytes)`` after booking the wire
  and ``SharedLink.clear`` (a simulation reset) calls
  ``subscriber("clear", stage, None, None)``.  Fair-share runs re-express
  fluid segments as reservations, so both contention modes are covered.
* :data:`ALLOCATION_SUBSCRIBERS` — ``FairShareRegistry`` calls
  ``subscriber(registry)`` at the end of ``open_flow``,
  ``commit_departure``, ``cancel_flow`` and ``apply_capacity_change``:
  every rate re-division, job kills and fault re-capacitation included.

The audits: **capacity conservation** (a stage's reservations are serial,
each ``nbytes / capacity`` long at its reserve-time capacity) and
**max-min fairness** (:func:`max_min_violations`).  :func:`audited` runs
both live and is what the CLIs, the harness and the fuzzer gate on.  The
lists are empty outside an audit and the workload engine's wire-time
meter, and are mutated in place, never rebound: the fabric modules hold
references to them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "RESERVATION_SUBSCRIBERS",
    "ALLOCATION_SUBSCRIBERS",
    "subscribed",
    "trace_reservations",
    "capacity_conservation_violations",
    "max_min_violations",
    "trace_fair_allocations",
    "audited",
]

#: ``subscriber(kind, stage, finish, nbytes)`` on every reserve / clear
RESERVATION_SUBSCRIBERS: List[Callable[[str, Any, Optional[float], Optional[float]], None]] = []
#: ``subscriber(registry)`` after every fair-share allocation change
ALLOCATION_SUBSCRIBERS: List[Callable[[Any], None]] = []

_FAIR_TOL = 1e-9
_CAPACITY_TOL = 1e-12


@contextmanager
def subscribed(subscribers: List[Callable], callback: Callable) -> Iterator[Callable]:
    """Keep ``callback`` in ``subscribers`` while the context is open."""
    subscribers.append(callback)
    try:
        yield callback
    finally:
        subscribers.remove(callback)


# ------------------------------------------------------ capacity conservation


def _overlap(last_finish, kind, stage, finish, nbytes, capacity, tolerance=_CAPACITY_TOL):
    """Feed one reservation event; ``(stage, begin, previous)`` if it overlaps.

    ``last_finish`` holds each stage beside its last finish, so a collected
    stage can never lend its ``id`` to a new one mid-audit.
    """
    if kind == "clear":  # a reset legitimately rewinds a reused stage
        last_finish.pop(id(stage), None)
        return None
    begin = finish - max(0.0, nbytes) / capacity
    previous = last_finish.get(id(stage), (stage, float("-inf")))[1]
    last_finish[id(stage)] = (stage, finish)
    return (stage, begin, previous) if begin < previous - tolerance else None


@contextmanager
def trace_reservations():
    """Record every :class:`~repro.mpisim.topology.SharedLink` reservation
    made while the context is open.

    Yields a list that fills with ``("reserve", stage, finish, nbytes,
    capacity)`` and ``("clear", stage, None, None, None)`` events in call
    order.  Each reserve event carries the stage capacity *at reserve time*:
    fault overlays re-capacitate stages mid-run, so auditing against the
    stage's current capacity would flag spurious overlaps on reservations
    made before the change.  Pair with :func:`capacity_conservation_violations`;
    :func:`audited` runs the same check live without keeping the list.
    """
    events: List[Tuple] = []

    def record(kind, stage, finish, nbytes):
        capacity = stage.capacity if kind == "reserve" else None
        events.append((kind, stage, finish, nbytes, capacity))

    with subscribed(RESERVATION_SUBSCRIBERS, record):
        yield events


def capacity_conservation_violations(events, tolerance: float = _CAPACITY_TOL) -> List[Tuple]:
    """``(stage, begin, previous_finish)`` for every overlapping reservation
    in a :func:`trace_reservations` event list (empty: capacity conserved)."""
    last_finish: Dict[int, Tuple[Any, float]] = {}
    found = (_overlap(last_finish, *event, tolerance) for event in events)
    return [problem for problem in found if problem is not None]


# ---------------------------------------------------------- max-min fairness


def max_min_violations(registry: Any) -> List[Tuple[str, str]]:
    """``(kind, detail)`` pairs where ``registry``'s allocation is not max-min.

    Stages never exceed capacity (``overcommit``), a backlogged stage that is
    some flow's only stage is saturated (``unsaturated``), and every active
    flow has a positive rate (``starved``) and crosses some saturated stage
    (``unbottlenecked``).
    """
    violations: List[Tuple[str, str]] = []
    active = registry.active_flows()
    stages = {id(stage): stage for flow in active for stage in flow.stages}
    saturated = set()
    for key, stage in stages.items():
        rate = stage.allocated_rate()
        if rate > stage.capacity * (1.0 + _FAIR_TOL):
            violations.append(
                ("overcommit", f"stage allocated {rate:.6g} > capacity {stage.capacity:.6g}")
            )
        if rate >= stage.capacity * (1.0 - _FAIR_TOL):
            saturated.add(key)
        elif stage.backlogged and any(
            len(flow.stages) == 1 and flow.stages[0] is stage for flow in active
        ):
            # a backlogged stage that is some flow's only stage has no
            # other bottleneck to defer to: max-min must fill it
            violations.append(
                (
                    "unsaturated",
                    f"backlogged single-stage bottleneck allocated {rate:.6g} "
                    f"< capacity {stage.capacity:.6g}",
                )
            )
    for flow in active:
        if flow.remaining <= 0.0:
            continue
        if flow.rate <= 0.0:
            violations.append(("starved", f"flow {flow.flow_id} has rate {flow.rate!r}"))
        elif not any(id(stage) in saturated for stage in flow.stages):
            violations.append(
                ("unbottlenecked", f"flow {flow.flow_id} is not bottlenecked anywhere")
            )
    return violations


@contextmanager
def trace_fair_allocations():
    """Check every allocation a fair-share registry settles while open.

    Yields a list that fills with the :func:`max_min_violations` ``(kind,
    detail)`` pairs found after each allocation change of any registry.
    """
    violations: List[Tuple[str, str]] = []

    def check(registry) -> None:
        violations.extend(max_min_violations(registry))

    with subscribed(ALLOCATION_SUBSCRIBERS, check):
        yield violations


# ------------------------------------------------------------- both, live


@contextmanager
def audited():
    """Audit capacity conservation and max-min fairness while open.

    Yields a list that fills, as the simulation runs, with ``(invariant,
    detail)`` pairs: ``invariant`` is ``"capacity"`` or ``"fair_share"``.
    Audits nest, and every subscriber is removed on exit, exception or not.
    """
    violations: List[Tuple[str, str]] = []
    last_finish: Dict[int, Tuple[Any, float]] = {}

    def on_reservation(kind, stage, finish, nbytes) -> None:
        capacity = stage.capacity if kind == "reserve" else None
        problem = _overlap(last_finish, kind, stage, finish, nbytes, capacity)
        if problem is not None:
            detail = (
                f"stage capacity={capacity:.6g} reservation begins at "
                f"{problem[1]:.9g} before previous finish {problem[2]:.9g}"
            )
            violations.append(("capacity", detail))

    def on_allocation(registry) -> None:
        for kind, detail in max_min_violations(registry):
            violations.append(("fair_share", f"{kind}: {detail}"))

    with subscribed(RESERVATION_SUBSCRIBERS, on_reservation), subscribed(
        ALLOCATION_SUBSCRIBERS, on_allocation
    ):
        yield violations
