#!/usr/bin/env python
"""Perf-trajectory runner: measure the codec and engine hot paths, write baselines.

Runs deterministic wall-clock measurements of the two hottest subsystems —
the vectorised compression data plane and the discrete-event engine — and
writes ``BENCH_codec.json`` / ``BENCH_engine.json`` at the repo root.  The
committed files are the *perf trajectory*: every PR that touches a hot path
regenerates them, so regressions are a diff, not an anecdote.

Usage::

    python benchmarks/perf_report.py            # full run, rewrite baselines
    python benchmarks/perf_report.py --quick    # best of 2 repetitions (CI smoke)
    python benchmarks/perf_report.py --quick --check
        # do not rewrite: compare against the committed baselines and exit
        # non-zero if any throughput regressed by more than the tolerance
    python benchmarks/perf_report.py --quick --check --suite scaling
        # scaling smoke: only the 1k-rank ring-exchange entries (both
        # contention modes), gated hard against the committed baseline
    python benchmarks/perf_report.py --full
        # additionally measure the 16k-rank scenario before rewriting

Scenario sizes are identical in quick and full mode (only the repetition
count differs), so quick CI runs are comparable with committed full runs.
The 16k-rank entry is the one exception: it takes tens of seconds per run,
so it is only measured under ``--full`` and skipped by ``--check``
comparisons when absent from the fresh run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.compression.pipelined import PipelinedSZx  # noqa: E402
from repro.compression.szx import SZxCompressor  # noqa: E402
from repro.compression.zfp import ZFPCompressor  # noqa: E402
from repro.mpisim import (  # noqa: E402
    Compute,
    Irecv,
    Isend,
    NetworkModel,
    Waitall,
    run_simulation,
)
from repro.utils.bitpack import pack_uint_bits_rows, unpack_uint_bits_rows  # noqa: E402

CODEC_BASELINE = REPO_ROOT / "BENCH_codec.json"
ENGINE_BASELINE = REPO_ROOT / "BENCH_engine.json"

#: a quick/CI run must not be more than this factor slower than the baseline
DEFAULT_TOLERANCE = 1.5

HOTPATH_N = 4_000_000
HOTPATH_EB = 1e-3

#: values per chunk a 16-rank C-Coll ring issues for 131072 values per rank
CHUNK_N = 8192
#: codec calls per timed repetition of a chunk entry (one call is too short
#: for a stable best-of timing)
CHUNK_CALLS = 50


def hotpath_field(n: int, seed: int = 7) -> np.ndarray:
    """Mostly-non-constant field (same construction as bench_codec_hotpath)."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 64.0 * np.pi, n)
    return (np.sin(t) + 0.05 * rng.standard_normal(n)).astype(np.float32)


def best_of(func, reps: int) -> float:
    """Best wall-clock seconds over ``reps`` runs (after one warm-up call)."""
    func()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return best


def machine_calibration() -> float:
    """Seconds for a fixed reference workload — a speed fingerprint of this host.

    The baselines are committed from a development machine; CI runners (and a
    loaded dev box) are simply slower overall.  ``--check`` measures this same
    workload locally and rescales the baseline throughputs by the ratio, so
    the gate compares *code* speed, not *machine* speed.  The workload mixes
    the two profiles the suites stress: numpy memory passes and Python-level
    object churn.
    """

    def workload() -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal(1_000_000)
        for _ in range(3):
            b = a * 1.000001
            b += a
            np.rint(b, out=b)
            b.astype(np.int32).astype(np.uint8)
        acc = {}
        for i in range(200_000):
            acc[i & 1023] = acc.get(i & 1023, 0) + i
        np.packbits((a[:800_000] > 0).astype(np.uint8))

    return best_of(workload, 3)


# ------------------------------------------------------------------- codec


def codec_suite(reps: int) -> dict:
    data = hotpath_field(HOTPATH_N)
    mb = data.nbytes / 1e6
    results = {}

    szx = SZxCompressor(error_bound=HOTPATH_EB)
    payload = szx.compress_bytes(data)
    compress_s = best_of(lambda: szx.compress_bytes(data), reps)
    decompress_s = best_of(lambda: szx.decompress_bytes(payload), reps)
    results["szx_compress_4m"] = {"seconds": compress_s, "mb_per_s": mb / compress_s}
    results["szx_decompress_4m"] = {"seconds": decompress_s, "mb_per_s": mb / decompress_s}
    results["szx_roundtrip_4m"] = {
        "seconds": compress_s + decompress_s,
        "mb_per_s": mb / (compress_s + decompress_s),
    }

    pipe = PipelinedSZx(error_bound=HOTPATH_EB)
    payload = pipe.compress_bytes(data)
    compress_s = best_of(lambda: pipe.compress_bytes(data), reps)
    decompress_s = best_of(lambda: pipe.decompress_bytes(payload), reps)
    results["pipe_szx_compress_4m"] = {"seconds": compress_s, "mb_per_s": mb / compress_s}
    results["pipe_szx_decompress_4m"] = {"seconds": decompress_s, "mb_per_s": mb / decompress_s}

    for name, codec in (
        ("zfp_abs", ZFPCompressor(mode="abs", error_bound=HOTPATH_EB)),
        ("zfp_fxr", ZFPCompressor(mode="fxr", rate=8)),
    ):
        payload = codec.compress_bytes(data)
        compress_s = best_of(lambda: codec.compress_bytes(data), reps)
        decompress_s = best_of(lambda: codec.decompress_bytes(payload), reps)
        results[f"{name}_compress_4m"] = {"seconds": compress_s, "mb_per_s": mb / compress_s}
        results[f"{name}_decompress_4m"] = {"seconds": decompress_s, "mb_per_s": mb / decompress_s}

    # per-call cost at the chunk size collectives issue (fixed cost dominates)
    chunk = hotpath_field(CHUNK_N)
    chunk_mb = chunk.nbytes / 1e6
    for name, codec in (
        ("szx", SZxCompressor(error_bound=HOTPATH_EB)),
        ("pipe_szx", PipelinedSZx(error_bound=HOTPATH_EB)),
    ):
        payload = codec.compress_bytes(chunk)
        compress_s = best_of(lambda: _repeat(codec.compress_bytes, chunk), reps) / CHUNK_CALLS
        decompress_s = best_of(lambda: _repeat(codec.decompress_bytes, payload), reps) / CHUNK_CALLS
        results[f"{name}_compress_8k"] = {"seconds": compress_s, "mb_per_s": chunk_mb / compress_s}
        results[f"{name}_decompress_8k"] = {
            "seconds": decompress_s,
            "mb_per_s": chunk_mb / decompress_s,
        }

    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 10, size=(31250, 128), dtype=np.uint64)
    blob = pack_uint_bits_rows(values, 10)
    vmb = values.size * 8 / 1e6
    pack_s = best_of(lambda: pack_uint_bits_rows(values, 10), reps)
    unpack_s = best_of(lambda: unpack_uint_bits_rows(blob, 31250, 128, 10), reps)
    results["bitpack_rows_pack_4m_w10"] = {"seconds": pack_s, "mb_per_s": vmb / pack_s}
    results["bitpack_rows_unpack_4m_w10"] = {"seconds": unpack_s, "mb_per_s": vmb / unpack_s}
    return results


def _repeat(call, argument) -> None:
    for _ in range(CHUNK_CALLS):
        call(argument)


# ------------------------------------------------------------------ engine

#: one payload shared by every simulated rank — allocating a fresh array per
#: rank inside the program factory dominates wall-clock at 1k+ ranks and
#: turns the measurement into an allocator benchmark
_RING_PAYLOAD = np.zeros(2048)


def ring_exchange_program(rounds: int):
    def program(rank, size):
        left = (rank - 1) % size
        right = (rank + 1) % size
        payload = _RING_PAYLOAD
        for step in range(rounds):
            recv_req = yield Irecv(source=left, tag=step)
            send_req = yield Isend(dest=right, data=payload, nbytes=payload.nbytes, tag=step)
            yield Waitall([recv_req, send_req])
            yield Compute(1e-6, category="Others")
        return rank

    return program


def _bench_net() -> NetworkModel:
    return NetworkModel(
        latency=1e-6, bandwidth=1e9, eager_threshold=1024, inflight_window=1024**2
    )


def engine_suite(reps: int) -> dict:
    net = _bench_net()
    results = {}
    for ranks, rounds in ((64, 64), (256, 16)):
        commands = ranks * rounds * 4  # Irecv + Isend + Waitall + Compute per round
        seconds = best_of(lambda: run_simulation(ranks, ring_exchange_program(rounds), net), reps)
        results[f"ring_exchange_{ranks}_ranks"] = {
            "seconds": seconds,
            "commands_per_s": commands / seconds,
        }

    from repro.api import Cluster

    rng = np.random.default_rng(0)
    inputs = [rng.standard_normal(20_000) for _ in range(32)]
    comm = Cluster(network=net).communicator(32)
    seconds = best_of(lambda: comm.allreduce(inputs, algorithm="ring"), reps)
    results["ring_allreduce_32_ranks"] = {"seconds": seconds, "runs_per_s": 1.0 / seconds}
    return results


def scaling_suite(reps: int, full: bool) -> dict:
    """Event-heap scaling entries: 1k/4k (and, under ``--full``, 16k) ranks.

    The 1k-rank scenario is also run over a shared-uplink topology in both
    contention modes — fair mode is where the event heap pays off (the
    scan-loop engine managed ~3.8k commands/s there; see
    ``scanloop_reference`` in the committed baseline).
    """
    from repro.mpisim.topology import SharedUplinkTopology

    net = _bench_net()
    rounds = 8
    results = {}

    def measure(name, ranks, topology=None, network=net):
        commands = ranks * rounds * 4
        seconds = best_of(
            lambda: run_simulation(
                ranks, ring_exchange_program(rounds), network, topology=topology
            ),
            reps,
        )
        results[name] = {"seconds": seconds, "commands_per_s": commands / seconds}

    measure("ring_exchange_1k_ranks", 1024)
    measure(
        "ring_exchange_1k_ranks_uplink",
        1024,
        topology=SharedUplinkTopology(ranks_per_node=8),
    )
    measure(
        "ring_exchange_1k_ranks_fair",
        1024,
        topology=SharedUplinkTopology(ranks_per_node=8, contention="fair"),
        network=NetworkModel(
            latency=1e-6,
            bandwidth=1e9,
            eager_threshold=1024,
            inflight_window=1024**2,
            contention="fair",
        ),
    )
    measure("ring_exchange_4k_ranks", 4096)
    if full:
        measure("ring_exchange_16k_ranks", 16384)
    return results


def workload_suite(reps: int) -> dict:
    """Multi-tenant throughput: a pinned-seed job mix on one fair fat tree.

    Measures the whole workload pipeline — arrival scheduling, on-the-fly
    compilation, multi-job engine multiplexing, cross-tenant fair sharing —
    as jobs completed and point-to-point flows delivered per wall-clock
    second.  Isolated baselines are skipped (they would just re-measure the
    single-job engine the other suites already cover).
    """
    from repro.api import Cluster
    from repro.workload import JobMix, WorkloadEngine

    cluster = Cluster.from_preset("fat_tree", ranks_per_node=2, contention="fair")
    specs = JobMix(n_jobs=8, arrival_rate=500.0, sizes=(2, 4, 8)).generate(7)
    engine = WorkloadEngine(cluster, policy="spread", seed=7)
    last = {}

    def run() -> None:
        last["report"] = engine.run(specs, baseline=False)

    seconds = best_of(run, reps)
    report = last["report"]
    return {
        "workload_mix_8_jobs_fair": {
            "seconds": seconds,
            "jobs_per_s": len(specs) / seconds,
        },
        "workload_mix_8_jobs_fair_flows": {
            "seconds": seconds,
            "flows_per_s": report.total_messages / seconds,
        },
    }


# ------------------------------------------------------------------- report


def throughput_of(entry: dict) -> float:
    for key in ("mb_per_s", "commands_per_s", "runs_per_s", "jobs_per_s", "flows_per_s"):
        if key in entry:
            return float(entry[key])
    return 1.0 / float(entry["seconds"])


def check(baseline_path: Path, fresh: dict, tolerance: float, speed_ratio: float) -> list:
    """Return a list of human-readable regression descriptions.

    ``speed_ratio`` is ``local_calibration / baseline_calibration`` (> 1 means
    this host is slower than the one that produced the baseline); baseline
    throughputs are divided by it before applying the tolerance.
    """
    if not baseline_path.exists():
        return [f"{baseline_path.name} is missing; run perf_report.py to create it"]
    doc = json.loads(baseline_path.read_text())
    baseline = doc["results"]
    problems = []
    for name, entry in fresh.items():
        if name not in baseline:
            continue
        old = throughput_of(baseline[name]) / speed_ratio
        new = throughput_of(entry)
        if new * tolerance < old:
            problems.append(
                f"{baseline_path.name}:{name}: throughput {new:,.1f} is more than "
                f"{tolerance}x below the committed baseline {old:,.1f} "
                f"(machine-normalised, speed ratio {speed_ratio:.2f})"
            )
    return problems


#: scan-loop engine throughputs measured immediately before the event-heap
#: refactor (PR 6), on the machine that regenerated the baselines — the
#: reference point for the heap's speedup claims.  Embedded verbatim in
#: ``BENCH_engine.json`` so the trajectory survives future regenerations.
SCANLOOP_REFERENCE = {
    "ring_exchange_1k_ranks": {"commands_per_s": 136097.2},
    "ring_exchange_1k_ranks_uplink": {"commands_per_s": 124838.1},
    "ring_exchange_1k_ranks_fair": {"commands_per_s": 3817.0},
    "ring_exchange_4k_ranks": {"commands_per_s": 77000.3},
}


def write_report(
    path: Path,
    results: dict,
    reps: int,
    quick: bool,
    calibration: float,
    extra: dict | None = None,
) -> None:
    doc = {
        "schema": 2,
        "generated_by": "python benchmarks/perf_report.py" + (" --quick" if quick else ""),
        "repetitions": reps,
        "calibration_seconds": calibration,
        "results": results,
    }
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="best of 2 repetitions (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against committed baselines instead of rewriting them",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed slowdown factor for --check (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="also measure the 16k-rank scaling scenario (slow; baseline runs)",
    )
    parser.add_argument(
        "--suite",
        choices=("all", "scaling", "workload"),
        default="all",
        help="'scaling' measures only the event-heap scaling entries "
        "(the CI scaling smoke); 'workload' only the multi-tenant job-mix "
        "entries; default runs everything",
    )
    args = parser.parse_args(argv)
    reps = 2 if args.quick else 5

    calibration = machine_calibration()
    print(f"machine calibration: {calibration:.4f}s")
    codec = {}
    engine = {}
    scaling = {}
    workload = {}
    plural = "s" if reps > 1 else ""
    if args.suite == "all":
        print(f"codec suite ({reps} rep{plural}) ...")
        codec = codec_suite(reps)
        print(f"engine suite ({reps} rep{plural}) ...")
        engine = engine_suite(reps)
    if args.suite in ("all", "scaling"):
        print(f"scaling suite ({reps} rep{plural}) ...")
        scaling = scaling_suite(reps, full=args.full)
    if args.suite in ("all", "workload"):
        print(f"workload suite ({reps} rep{plural}) ...")
        workload = workload_suite(reps)

    for name, entry in {**codec, **engine, **scaling, **workload}.items():
        print(f"  {name:32s} {entry['seconds']:.4f}s  ({throughput_of(entry):,.1f})")

    if args.check:
        def ratio_for(path: Path) -> float:
            if path.exists():
                base_cal = json.loads(path.read_text()).get("calibration_seconds")
                if base_cal:
                    return calibration / float(base_cal)
            return 1.0

        engine_ratio = ratio_for(ENGINE_BASELINE)
        # hard gates: the codec data plane (PR 5's contract) and the scaling
        # entries (the event-heap contract — superlinear scheduling cost would
        # show up here first).  The small fixed-size engine numbers are
        # Python-object-heavy and noisier on shared runners, so they only warn.
        codec_problems = (
            check(CODEC_BASELINE, codec, args.tolerance, ratio_for(CODEC_BASELINE))
            if codec
            else []
        )
        scaling_problems = (
            check(ENGINE_BASELINE, scaling, args.tolerance, engine_ratio)
            if scaling
            else []
        )
        workload_problems = (
            check(ENGINE_BASELINE, workload, args.tolerance, engine_ratio)
            if workload
            else []
        )
        engine_problems = (
            check(ENGINE_BASELINE, engine, args.tolerance, engine_ratio) if engine else []
        )
        for p in engine_problems:
            print(f"\nWARNING (advisory): {p}", file=sys.stderr)
        hard_problems = codec_problems + scaling_problems + workload_problems
        if hard_problems:
            print("\nPERF REGRESSION:", file=sys.stderr)
            for p in hard_problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        gated = " and ".join(
            name
            for name, suite in (
                ("codec", codec), ("scaling", scaling), ("workload", workload)
            )
            if suite
        )
        print(f"\nall {gated} throughputs within {args.tolerance}x of the committed baselines")
        return 0

    if args.suite != "all":
        print("refusing to rewrite baselines from a partial suite; use --check", file=sys.stderr)
        return 2
    write_report(CODEC_BASELINE, codec, reps, args.quick, calibration)
    write_report(
        ENGINE_BASELINE,
        {**engine, **scaling, **workload},
        reps,
        args.quick,
        calibration,
        extra={"scanloop_reference": SCANLOOP_REFERENCE},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
