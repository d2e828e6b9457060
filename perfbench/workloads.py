"""The benchmark's three workloads and the layer boundaries its trace wraps.

Every workload is driven through the public API only
(``repro.api.Cluster``/``Communicator`` and ``repro.workload``).  Inputs are
generated here from the workload seed and the op index; the program never
sees the seed.  One *op* is one call; each class says what its op is and
why the workload was chosen (``perfbench/README.md`` tabulates the same).
Each fabric is sized explicitly with a host slot per rank, and a workload
refuses to start otherwise, so no op depends on the communicator validating
its size.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "OpRecord",
    "WORKLOADS",
    "audited",
    "bound_checked",
    "byte_counter",
    "install_layers",
]

_U = 2.0 ** -53  # unit roundoff of float64


@dataclass
class OpRecord:
    """What the output check of one op found."""

    #: virtual makespan of the op, seconds
    sim_time: float
    #: virtual latency of every collective step of the op, seconds
    step_latencies: List[float]
    #: summed squared error of every rank output against the float64 reference
    sq_err: float = 0.0
    #: number of output values compared
    count: int = 0
    #: smallest and largest reference value
    ref_min: float = float("inf")
    ref_max: float = float("-inf")
    ok: bool = True
    problems: List[str] = field(default_factory=list)

    def compare(self, value: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Accumulate the error of ``value`` against ``ref``; return |error|."""
        err = np.abs(np.asarray(value, dtype=np.float64) - ref)
        self.sq_err += float(np.dot(err, err))
        self.count += err.size
        if ref.size:
            self.ref_min = min(self.ref_min, float(ref.min()))
            self.ref_max = max(self.ref_max, float(ref.max()))
        return err

    def fail(self, why: str) -> None:
        self.ok = False
        self.problems.append(why)


def _require_slots(topology, n_ranks: int) -> None:
    slots = topology.n_fabric_nodes * topology.ranks_per_node
    if slots < n_ranks:
        raise ValueError(f"fabric has {slots} host slots for {n_ranks} ranks")


class CCollAllreduce:
    """``Cluster.from_preset("fat_tree", nodes=16).communicator(16)
    .allreduce(x, compression="on")``, default SZx codec at eb=1e-3.

    float32 smooth field, 131072 values per rank, so the ring compresses
    8192-value chunks.  The codec (``compression`` plus ``utils.bitpack``)
    does most of the work, at the chunk size codec-cost work targets; the
    fabric uses reservation contention, so ``mpisim.fairshare`` is bypassed.
    """

    name = "ccoll_allreduce"
    ranks = 16
    values = 131072

    def __init__(self, seed: int) -> None:
        from repro.api import Cluster

        self.seed = seed
        self.comm = Cluster.from_preset("fat_tree", nodes=16).communicator(self.ranks)
        _require_slots(self.comm.cluster.topology, self.ranks)
        config = self.comm.cluster.config
        if (config.codec, config.error_bound) != ("szx", 1e-3):
            raise ValueError(f"default codec is {config.codec} at eb={config.error_bound}, want szx at 1e-3")
        self.error_bound = config.error_bound

    def inputs(self, index: int) -> List[np.ndarray]:
        # 16 periods of one sine whose phase shifts a little from rank to
        # rank, plus fresh noise: the sum keeps a steady range (and PSNR)
        # from op to op while no two ops share an input
        rng = np.random.default_rng([self.seed, index])
        t = np.linspace(0.0, 32.0 * np.pi, self.values, endpoint=False)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return [
            (
                np.sin(t + phase + rng.normal(0.0, 0.1))
                + 0.01 * rng.standard_normal(self.values)
            ).astype(np.float32)
            for _ in range(self.ranks)
        ]

    def run(self, inputs):
        return self.comm.allreduce(inputs, compression="on")

    def check(self, inputs, outcome) -> OpRecord:
        """Every rank within the chain bound (P+1)*eb of the float64 sum.

        The float32 outputs are promoted exactly to float64 and compared with
        no slack, so a bound broken by float32 rounding counts as a failure.
        """
        makespan = outcome.sim.total_time
        record = OpRecord(sim_time=makespan, step_latencies=[makespan])
        ref = np.sum(np.asarray(inputs, dtype=np.float64), axis=0)
        bound = (self.ranks + 1) * self.error_bound
        if len(outcome.values) != self.ranks:
            record.fail(f"{len(outcome.values)} rank outputs, want {self.ranks}")
        for rank, value in enumerate(outcome.values):
            if value.dtype != inputs[0].dtype or value.shape != ref.shape:
                record.fail(f"rank {rank}: {value.dtype}{value.shape}, want {inputs[0].dtype}{ref.shape}")
                continue
            worst = float(record.compare(value, ref).max())
            if not worst <= bound:
                record.fail(f"rank {rank}: error {worst:.6g} > bound {bound:.6g}")
        return record


class PlainAllreduce:
    """``Cluster.from_preset("fat_tree", nodes=16, ranks_per_node=4,
    contention="fair").communicator(64).allreduce(x, algorithm="ring",
    compression="off")``.

    float64 normals, 65536 values per rank.  The ring schedule C-Coll uses,
    with the codec bypassed: engine scheduling, fair-share re-division and
    routing carry the wall time, so codec work predicts no change here.
    """

    name = "plain_allreduce"
    ranks = 64
    values = 65536

    def __init__(self, seed: int) -> None:
        from repro.api import Cluster

        self.seed = seed
        cluster = Cluster.from_preset("fat_tree", nodes=16, ranks_per_node=4, contention="fair")
        self.comm = cluster.communicator(self.ranks)
        _require_slots(cluster.topology, self.ranks)

    def inputs(self, index: int) -> List[np.ndarray]:
        rng = np.random.default_rng([self.seed, index])
        return list(rng.standard_normal((self.ranks, self.values)))

    def run(self, inputs):
        return self.comm.allreduce(inputs, algorithm="ring", compression="off")

    def check(self, inputs, outcome) -> OpRecord:
        """Every rank within float64 reassociation tolerance of numpy's sum.

        Two different summation orders of P terms each carry at most
        gamma_(P-1) * sum|x| of rounding error, so they differ by at most
        twice that.
        """
        makespan = outcome.sim.total_time
        record = OpRecord(sim_time=makespan, step_latencies=[makespan])
        stacked = np.asarray(inputs)
        ref = stacked.sum(axis=0)
        n = self.ranks - 1
        tolerance = 2.0 * (n * _U / (1.0 - n * _U)) * np.abs(stacked).sum(axis=0)
        if len(outcome.values) != self.ranks:
            record.fail(f"{len(outcome.values)} rank outputs, want {self.ranks}")
        for rank, value in enumerate(outcome.values):
            if value.shape != ref.shape:
                record.fail(f"rank {rank}: shape {value.shape}, want {ref.shape}")
                continue
            if not np.all(record.compare(value, ref) <= tolerance):
                record.fail(f"rank {rank}: outside float64 reassociation tolerance")
        return record


class TenantMix:
    """``WorkloadEngine(cluster, policy="spread", seed=s, record_values=True)
    .run(specs, baseline=False)`` on a 16-node x 2-rank fair fat tree.

    ``specs`` are the eight jobs ``JobMix(n_jobs=8, arrival_rate=500.0,
    sizes=(2, 4, 8))`` draws.  The only workload that uses the ``workload``
    layer and cross-tenant fair sharing, and it drives the codec differently:
    float64 messages of 1k-16k elements across allreduce, allgather, bcast
    and reduce_scatter.  ``record_values`` keeps each step's rank outputs so
    they can be checked.
    """

    name = "tenant_mix"

    def __init__(self, seed: int) -> None:
        from repro.api import Cluster
        from repro.workload import JobMix

        self.seed = seed
        self.cluster = Cluster.from_preset("fat_tree", nodes=16, ranks_per_node=2, contention="fair")
        self.mix = JobMix(n_jobs=8, arrival_rate=500.0, sizes=(2, 4, 8))
        self.error_bound = self.cluster.config.error_bound
        _require_slots(self.cluster.topology, max(self.mix.sizes))

    def inputs(self, index: int):
        # op costs vary several-fold with the job structure (arrivals, sizes,
        # collectives), so op i always runs the structure the mix draws for
        # seed i and runs compare like with like; the workload seed gives
        # every job fresh data, and the placement seed
        seeds = np.random.SeedSequence([self.seed, index]).generate_state(self.mix.n_jobs + 1)
        specs = [
            dataclasses.replace(spec, seed=int(data_seed))
            for spec, data_seed in zip(self.mix.generate(index), seeds[1:])
        ]
        return int(seeds[0]), specs

    def run(self, inputs):
        from repro.workload import WorkloadEngine

        op_seed, specs = inputs
        engine = WorkloadEngine(self.cluster, policy="spread", seed=op_seed, record_values=True)
        return engine.run(specs, baseline=False)

    def check(self, inputs, report) -> OpRecord:
        """Every job completes and every step's rank outputs are in bound.

        References are float64 results rebuilt from the jobs' seeded inputs.
        An uncompressed step must match them exactly (bcast, allgather) or
        within float64 reassociation tolerance (allreduce, reduce_scatter);
        a step that may compress gets (P+1)*eb on top, the chain bound of a
        P-rank compressed ring.
        """
        from repro.workload import call_inputs

        record = OpRecord(
            sim_time=report.makespan,
            step_latencies=[lat for r in report.records for lat in r.step_latencies()],
        )
        for job in report.records:
            spec = job.spec
            if job.outcome != "completed" or not job.completed:
                record.fail(f"{spec.job_id}: {job.outcome}")
                continue
            steps = [call for _ in range(spec.iterations) for call in spec.calls]
            for step, call in enumerate(steps):
                values = job.step_values[step]
                if sorted(values) != list(range(spec.n_ranks)):
                    record.fail(f"{spec.job_id} step {step}: outputs from ranks {sorted(values)}")
                    continue
                for problem in self._check_step(record, call, call_inputs(spec, call, step), values):
                    record.fail(f"{spec.job_id} step {step} ({call.op}, {call.compression}): {problem}")
        return record

    def _check_step(self, record: OpRecord, call, inputs, values: Dict[int, object]):
        """Yield what is wrong with one step's outputs."""
        n = len(inputs)
        stacked = np.asarray(inputs, dtype=np.float64)
        lossy = 0.0 if call.compression == "off" else (n + 1) * self.error_bound
        if call.op in ("allgather", "bcast"):
            expected = {rank: list(stacked) if call.op == "allgather" else [stacked[0]] for rank in range(n)}
            received = {rank: list(values[rank]) if call.op == "allgather" else [values[rank]] for rank in range(n)}
            tolerance = lossy
        else:
            ref = stacked.sum(axis=0)
            tolerance = lossy + 2.0 * ((n - 1) * _U / (1.0 - (n - 1) * _U)) * np.abs(stacked).sum(axis=0)
            received = {rank: [values[rank]] for rank in range(n)}
            if call.op == "allreduce":
                expected = {rank: [ref] for rank in range(n)}
            else:  # reduce_scatter: rank r holds the r-th consecutive chunk
                bounds = np.cumsum([0] + [np.asarray(values[rank]).size for rank in range(n)])
                if bounds[-1] != ref.size:
                    yield f"chunks cover {bounds[-1]} of {ref.size} values"
                    return
                expected = {rank: [ref[bounds[rank] : bounds[rank + 1]]] for rank in range(n)}
                tolerance = [tolerance[bounds[rank] : bounds[rank + 1]] for rank in range(n)]
        for rank in range(n):
            if len(received[rank]) != len(expected[rank]):
                yield f"rank {rank}: {len(received[rank])} blocks"
                continue
            limit = tolerance[rank] if isinstance(tolerance, list) else tolerance
            for got, want in zip(received[rank], expected[rank]):
                if np.shape(got) != want.shape or not np.all(record.compare(got, want) <= limit):
                    yield f"rank {rank} out of bound"
                    break


#: workload name -> class; ``WORKLOADS[name](seed)`` builds its fabric and session
WORKLOADS = {cls.name: cls for cls in (CCollAllreduce, PlainAllreduce, TenantMix)}


# ------------------------------------------------------------- counters


@contextmanager
def byte_counter():
    """Count raw and compressed bytes of every compressed message.

    Yields ``[raw_bytes, compressed_bytes]``; the counter is a plain wrapper
    around ``CompressionAdapter.compress`` with no timing in it.
    """
    from repro.ccoll.adapter import CompressionAdapter

    totals = [0, 0]
    original = CompressionAdapter.__dict__["compress"]

    def compress(self, data):
        message = original(self, data)
        totals[0] += message.original_count * message.original_dtype.itemsize
        totals[1] += message.real_nbytes
        return message

    CompressionAdapter.compress = compress
    try:
        yield totals
    finally:
        CompressionAdapter.compress = original


@contextmanager
def bound_checked():
    """Check every error-bounded codec call's reconstruction against its bound.

    Yields ``[calls_checked, calls_violating]``.  The reconstruction is kept
    in the caller's dtype and promoted exactly to float64 for the comparison,
    with no slack.
    """
    from repro.compression.base import Compressor

    counts = [0, 0]
    original = Compressor.__dict__["compress"]

    def compress(self, data):
        buffer = original(self, data)
        if self.error_bounded:
            arr = np.asarray(data)
            bound = (
                self.effective_error_bound(arr)
                if hasattr(self, "effective_error_bound")
                else self.error_bound
            )
            recon = self.decompress(buffer)
            counts[0] += 1
            err = np.abs(recon.astype(np.float64) - arr.astype(np.float64))
            counts[1] += int(bool(np.any(err > bound)))
        return buffer

    Compressor.compress = compress
    try:
        yield counts
    finally:
        Compressor.compress = original


@contextmanager
def audited():
    """Run under the capacity-conservation and max-min fairness audits.

    The same monitors ``python -m repro.workload run --check-invariants``
    uses; yields a callable returning the violations found so far.
    """
    from repro.fuzzer.executor import trace_fair_allocations
    from repro.mpisim.topology import capacity_conservation_violations, trace_reservations

    with trace_reservations() as events, trace_fair_allocations() as fair:
        yield lambda: len(capacity_conservation_violations(events)) + len(fair)


# ---------------------------------------------------------- traced layers


def _count_compress(counters, args, kwargs, result) -> None:
    data = args[1] if len(args) > 1 else kwargs["data"]
    payload = getattr(result, "payload", result)
    counters["compression.compress.values"] += data.size
    counters["compression.compress.in_bytes"] += data.nbytes
    counters["compression.compress.expanded"] += len(payload) >= data.nbytes


def _count_flow(counters, args, kwargs, result) -> None:
    counters["mpisim.fairshare.flows"] += 1


def _count_events(counters, args, kwargs, result) -> None:
    counters["mpisim.engine.events"] += sum(args[0].event_counts.values())


def _subclasses(cls: type) -> Sequence[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install_layers(tracer) -> None:
    """Wrap each layer's public entry points in ``tracer`` spans."""
    from repro.api.communicator import Communicator
    from repro.ccoll.adapter import CompressionAdapter
    from repro.collectives import selection
    from repro.compression import szx, zfp
    from repro.compression.base import Compressor
    from repro.mpisim.engine import Engine
    from repro.mpisim.fairshare import FairShareRegistry
    from repro.mpisim.topology import Topology
    from repro.workload import engine as workload_engine
    from repro.workload import job as workload_job

    tracer.patch(Compressor, "compress", "compression.compress", _count_compress)
    tracer.patch(Compressor, "decompress", "compression.decompress")
    for codec in _subclasses(Compressor):
        if "compress_bytes" in codec.__dict__:
            tracer.patch(codec, "compress_bytes", "compression.compress", _count_compress)
        if "decompress_bytes" in codec.__dict__:
            tracer.patch(codec, "decompress_bytes", "compression.decompress")
    # the codecs import the packers by name, so patch them where they are used
    for module in (szx, zfp):
        for attr in ("pack_width_classes", "pack_uint_bits_rows"):
            if hasattr(module, attr):
                tracer.patch(module, attr, "utils.bitpack.pack")
        for attr in ("unpack_width_classes", "unpack_uint_bits_rows"):
            if hasattr(module, attr):
                tracer.patch(module, attr, "utils.bitpack.unpack")
    tracer.patch(CompressionAdapter, "compress", "ccoll.adapter")
    tracer.patch(CompressionAdapter, "decompress", "ccoll.adapter")
    tracer.patch(Engine, "run", "mpisim.engine", _count_events)
    for topology in _subclasses(Topology):
        if "resolve_link" in topology.__dict__:
            tracer.patch(topology, "resolve_link", "mpisim.topology.resolve_link")
    tracer.patch(FairShareRegistry, "open_flow", "mpisim.fairshare", _count_flow)
    for attr in ("commit_departure", "cancel_flow", "apply_capacity_change"):
        tracer.patch(FairShareRegistry, attr, "mpisim.fairshare")
    tracer.patch(selection, "select_algorithm", "collectives.select_algorithm")
    for attr in (
        "allreduce", "allgather", "bcast", "scatter", "reduce_scatter",
        "gather", "reduce", "alltoall", "barrier", "capture",
    ):
        tracer.patch(Communicator, attr, "api.communicator")
    tracer.patch(workload_engine, "compile_job", "workload.compile_job")
    tracer.patch(workload_job, "call_inputs", "workload.call_inputs")
    tracer.patch(workload_engine.WorkloadEngine, "run", "workload.engine")
