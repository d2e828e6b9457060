#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ccoll_allreduce --seed 1 --seconds 30 --trace 0

One process drives the workload as a closed loop with one client: the next
op starts when the previous one has returned and its output has been
checked.  Inputs come from ``--seed`` and the op index.

``--trace 0`` measures the end-to-end metrics: set-up time from a fresh
interpreter (median of several fresh processes), wall time per op over a
``--seconds`` window (throughput as the median rate of batches of
consecutive ops) with no instrumentation but a byte counter on
compressed messages, peak memory, and the virtual-time and accuracy figures
of the first ``REFERENCE_OPS`` ops.  Set-up and op wall times are scaled to
a reference host speed with the calibration loop of ``perfbench.hostspeed``,
timed right before and after each of them; the raw figures are printed too.  One of the set-up processes also
replays op 0; its virtual outcome must equal the window's op 0 bit for bit.

``--trace 1`` measures the per-layer metrics: for ``--seconds`` it runs each
op twice, once untraced and once with every layer boundary wrapped in spans,
and then runs ``CHECK_OPS`` ops under the codec-bound and capacity/fairness
audits, outside any span.  The spans are written to
``.perfbench/`` when the run ends.

Every op's output is checked; a failed check counts the op as failed and the
run goes on.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: consecutive ops per batch whose median rate gives ops_per_s
RATE_BATCH = 4
#: fresh interpreters whose set-up time is measured; the median is reported
SETUP_PROBES = 3
#: ops whose virtual outcome gives the virtual-time and accuracy metrics
REFERENCE_OPS = 24
#: ops run under the correctness audits in the traced mode
CHECK_OPS = 2
#: seconds a set-up probe may take, op 0 replay included
PROBE_TIMEOUT = 120


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "repro").is_dir():
    _fail(f"no program source under {ROOT / 'src'}; run from a full checkout")
if not (ROOT / "BENCHMARK.json").is_file():
    _fail(f"no BENCHMARK.json at {ROOT}")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.hostspeed import calibration_s, normalised  # noqa: E402
from perfbench.stats import batch_rate, check_metric_name, check_unit, percentile, psnr_db  # noqa: E402
from perfbench.tracing import END, NAME, ROOT as ROOT_SPAN, START, Tracer, layer_totals  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    audited,
    bound_checked,
    byte_counter,
    install_layers,
)


@dataclass
class Window:
    """Ops run back to back, with their wall times and output checks."""

    walls: List[float] = field(default_factory=list)
    #: each kept wall scaled to the reference host speed (calibrated runs only)
    scaled: List[float] = field(default_factory=list)
    #: seconds of the calibration loop last timed, None when not calibrating
    calibration: Optional[float] = None
    records: list = field(default_factory=list)
    #: op index of each kept record
    indices: List[int] = field(default_factory=list)
    #: (raw, compressed) message bytes of each reference op
    op_bytes: List[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_op(workload, index: int, window: Window, around=None, counter=None) -> None:
    """Run and check op ``index``, recording the outcome in ``window``.

    Only the op call itself is timed; input generation and the output
    check run outside the timing.  When ``window`` is calibrated, the
    calibration loop is timed right after the op, and the op wall is scaled
    by the loop times on either side of it.
    """
    window.attempted += 1
    inputs = workload.inputs(index)
    before = tuple(counter) if counter is not None else (0, 0)
    try:
        with around(index) if around is not None else nullcontext():
            start = time.perf_counter()
            outcome = workload.run(inputs)
            wall = time.perf_counter() - start
        loop_before = window.calibration
        if loop_before is not None:
            window.calibration = calibration_s()
        record = workload.check(inputs, outcome)
    except Exception:  # noqa: BLE001 - a failing op is counted, the run goes on
        traceback.print_exc()
        window.failed += 1
        return
    window.walls.append(wall)
    if loop_before is not None:
        window.scaled.append(normalised(wall, loop_before, window.calibration))
    if not record.ok:
        window.failed += 1
        print(f"op {index} failed: {'; '.join(record.problems[:3])}", file=sys.stderr)
    if index < REFERENCE_OPS:
        window.records.append(record)
        window.indices.append(index)
        after = tuple(counter) if counter is not None else (0, 0)
        window.op_bytes.append((after[0] - before[0], after[1] - before[1]))


def run_ops(
    workload, seconds: float, *, min_ops: int = 0, max_ops=None, counter=None, calibrate=False
) -> Window:
    """Run ops 0, 1, ... until ``seconds`` have passed and ``min_ops`` ran."""
    window = Window(calibration=calibration_s() if calibrate else None)
    deadline = time.perf_counter() + seconds
    while (window.attempted < min_ops or time.perf_counter() < deadline) and (
        max_ops is None or window.attempted < max_ops
    ):
        run_op(workload, window.attempted, window, counter=counter)
    return window


# ------------------------------------------------------------- set-up


def probe(workload_name: str, seed: int, replay: bool) -> None:
    """Child process: set up, report the set-up split, optionally replay op 0."""
    start = time.perf_counter()
    import repro  # noqa: F401 - the import is what is being timed

    imported = time.perf_counter()
    workload = WORKLOADS[workload_name](seed)
    built = time.perf_counter()
    inputs = workload.inputs(0)
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}), flush=True)
    if replay:
        with byte_counter() as totals:
            outcome = workload.run(inputs)
        print(json.dumps(fingerprint(workload.check(inputs, outcome), tuple(totals))))


def run_probes(workload_name: str, seed: int, replay: bool):
    """Time ``SETUP_PROBES`` fresh interpreters from launch to first op ready."""
    samples, replayed = [], None
    for index in range(SETUP_PROBES):
        mode = "replay" if replay and index == 0 else "setup"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload_name, "--seed", str(seed), "--probe", mode,
        ]
        before = calibration_s()
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            first = child.stdout.readline()
            ready = time.perf_counter() - start
            try:
                rest, _ = child.communicate(timeout=PROBE_TIMEOUT)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
        if child.returncode != 0 or not first:
            raise RuntimeError(f"set-up probe exited with code {child.returncode}")
        sample = json.loads(first)
        sample["raw_setup_s"] = ready
        sample["setup_s"] = normalised(ready, before, calibration_s())
        samples.append(sample)
        if mode == "replay":
            replayed = json.loads(rest.strip().splitlines()[-1])
    return samples, replayed


def fingerprint(record, op_bytes) -> Dict[str, object]:
    """The virtual outcome of one op, as JSON-exact values."""
    return json.loads(
        json.dumps(
            {
                "sim_time": record.sim_time,
                "step_latencies": record.step_latencies,
                "sq_err": record.sq_err,
                "count": record.count,
                "ref_range": [record.ref_min, record.ref_max],
                "bytes": list(op_bytes),
            }
        )
    )


# ------------------------------------------------------------ metrics


def end_to_end(window: Window, setup: List[dict]) -> Dict[str, float]:
    walls = window.scaled
    refs = window.records
    raw = sum(b[0] for b in window.op_bytes)
    compressed = sum(b[1] for b in window.op_bytes)
    steps = [lat for r in refs for lat in r.step_latencies]
    return {
        "ops_per_s": batch_rate(walls, RATE_BATCH),
        "op_p50_s": percentile(walls, 50)[0],
        "op_p90_s": percentile(walls, 90)[0],
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_time_us": statistics.median(r.sim_time for r in refs) * 1e6,
        # nothing compressed means every byte went out raw
        "compression_ratio": raw / compressed if compressed else 1.0,
        "psnr_db": psnr_db(
            sum(r.sq_err for r in refs),
            sum(r.count for r in refs),
            max(r.ref_max for r in refs) - min(r.ref_min for r in refs),
        ),
        "sim_step_p99_us": percentile(steps, 99)[0] * 1e6,
    }


#: layers reported with calls and self time per op
_LAYERS = (
    "compression.compress",
    "compression.decompress",
    "utils.bitpack.pack",
    "utils.bitpack.unpack",
    "ccoll.adapter",
    "mpisim.topology.resolve_link",
    "mpisim.fairshare",
    "collectives.select_algorithm",
    "workload.compile_job",
    "workload.call_inputs",
    "workload.engine",
)


def per_layer(tracer: Tracer, untraced: Window, traced: Window, setup, checks) -> Dict[str, float]:
    n = len(traced.walls)
    totals = layer_totals(tracer.spans)
    counters = tracer.counters

    def calls(layer: str) -> float:
        return totals.get(layer, {}).get("calls", 0)

    def own(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for layer in _LAYERS:
        metrics[f"{layer}.calls"] = calls(layer) / n
        metrics[f"{layer}.self_s"] = own(layer) / n
    compress, decompress = "compression.compress", "compression.decompress"
    metrics[f"{compress}.us_per_call"] = ratio(own(compress), calls(compress)) * 1e6
    metrics[f"{compress}.values_per_call"] = ratio(counters[f"{compress}.values"], calls(compress))
    metrics[f"{compress}.mb_per_s"] = ratio(counters[f"{compress}.in_bytes"], own(compress)) / 1e6
    metrics[f"{decompress}.us_per_call"] = ratio(own(decompress), calls(decompress)) * 1e6
    metrics["compression.expand_frac"] = ratio(counters[f"{compress}.expanded"], calls(compress))
    metrics["compression.bound_checks"] = checks["bound_checks"]
    metrics["compression.bound_violations"] = checks["bound_violations"]
    metrics["mpisim.engine.runs"] = calls("mpisim.engine") / n
    metrics["mpisim.engine.self_s"] = own("mpisim.engine") / n
    metrics["mpisim.engine.events"] = counters["mpisim.engine.events"] / n
    metrics["mpisim.engine.events_per_s"] = ratio(
        counters["mpisim.engine.events"], own("mpisim.engine")
    )
    metrics["mpisim.fairshare.flows"] = counters["mpisim.fairshare.flows"] / n
    metrics["mpisim.audit.violations"] = checks["audit_violations"]
    metrics["api.communicator.self_s"] = own("api.communicator") / n
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    metrics["setup.build_s"] = statistics.median(s["build_s"] for s in setup)
    roots = [s for s in tracer.spans if s[NAME] == ROOT_SPAN]
    metrics["trace.op_wall_s"] = sum(s[END] - s[START] for s in roots) / n
    metrics["trace.unattributed_s"] = own(ROOT_SPAN) / n
    metrics["trace.overhead_frac"] = sum(traced.walls) / sum(untraced.walls) - 1.0
    return metrics


def traced_run(workload, seconds: float):
    """Each op untraced and traced in turn, then the audited check ops.

    Running the two copies of an op back to back (alternating which goes
    first) keeps machine-load drift out of the tracing overhead.
    """
    tracer = Tracer()
    untraced, traced = Window(), Window()

    @contextmanager
    def traced_op(index: int):
        install_layers(tracer)
        try:
            with tracer.op(index):
                yield
        finally:
            tracer.restore()

    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        pair = [(untraced, None), (traced, traced_op)]
        for window, around in pair[:: 1 if index % 2 == 0 else -1]:
            run_op(workload, index, window, around)
        index += 1
    with audited() as audit_violations, bound_checked() as bounds:
        audit = run_ops(workload, 0.0, min_ops=CHECK_OPS, max_ops=CHECK_OPS)
        checks = {
            "audit_violations": audit_violations(),
            "bound_checks": bounds[0],
            "bound_violations": bounds[1],
        }
    return tracer, (untraced, traced, audit), checks


def write_spans(tracer: Tracer, workload_name: str, seed: int) -> Path:
    """Write the spans as ``[name id, start ns, end ns, parent, op]`` rows."""
    names = sorted({span[NAME] for span in tracer.spans})
    ids = {name: index for index, name in enumerate(names)}
    origin = tracer.spans[0][START] if tracer.spans else 0.0
    rows = [
        [ids[name], round((start - origin) * 1e9), round((end - origin) * 1e9), parent, op]
        for name, start, end, parent, op in tracer.spans
    ]
    out = ROOT / ".perfbench" / f"trace-{workload_name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as fh:
        json.dump({"names": names, "fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": rows}, fh)
    return out


def declared(kind: str) -> List[dict]:
    """The metric declarations of ``BENCHMARK.json`` (``end_to_end``/``per_layer``)."""
    entries = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    for entry in entries:
        check_metric_name(entry["name"])
        check_unit(entry["unit"])
    return entries


def emit(kind: str, values: Dict[str, float], correct: bool, attempted: int, failed: int) -> None:
    entries = declared(kind)
    names = {e["name"] for e in entries}
    if names != set(values):
        raise RuntimeError(
            f"measured {sorted(set(values) - names)} not declared, "
            f"declared {sorted(names - set(values))} not measured"
        )
    for entry in entries:
        print(f"  {entry['name']:<44} {values[entry['name']]:>16.6g} {entry['unit']}")
    print(f"  ops attempted {attempted}, failed {failed}, correct {correct}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            e["name"]: {"value": float(values[e["name"]]), "unit": e["unit"]} for e in entries
        },
    }
    print(json.dumps(result))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "replay"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        probe(args.workload, args.seed, args.probe == "replay")
        return 0

    setup, replayed = run_probes(args.workload, args.seed, replay=not args.trace)
    workload = WORKLOADS[args.workload](args.seed)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        tracer, windows, checks = traced_run(workload, args.seconds)
        path = write_spans(tracer, args.workload, args.seed)
        print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        attempted = sum(w.attempted for w in windows)
        failed = sum(w.failed for w in windows)
        metrics = per_layer(tracer, windows[0], windows[1], setup, checks)
        emit("per_layer", metrics, failed == 0, attempted, failed)
        return 0

    with byte_counter() as totals:
        window = run_ops(
            workload, args.seconds, min_ops=REFERENCE_OPS, counter=totals, calibrate=True
        )
    if not window.records:
        raise RuntimeError("no op completed")
    deterministic = window.indices[0] == 0 and fingerprint(
        window.records[0], window.op_bytes[0]
    ) == replayed
    if not deterministic:
        print("op 0 replayed in a fresh interpreter gave a different outcome", file=sys.stderr)
    _, beyond = percentile(window.walls, 90)
    print(f"  {len(window.walls)} timed ops (p90 has {beyond} beyond it); "
          f"virtual metrics over the first {len(window.records)} ops")
    print(f"  raw wall: op p50 {percentile(window.walls, 50)[0]:.6g} s, "
          f"set-up {statistics.median(s['raw_setup_s'] for s in setup):.6g} s; "
          f"host ran at {statistics.median(w / s for w, s in zip(window.walls, window.scaled)):.3f}x "
          f"the reference time")
    metrics = end_to_end(window, setup)
    emit("end_to_end", metrics, window.failed == 0 and deterministic, window.attempted, window.failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
