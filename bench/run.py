"""Benchmark of the telent package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/`` tree.  Workloads (see ``workloads.py``): ``fuzz_small_d``,
``pairs_d64``, ``figure_qubit``, ``oracle_xval``, or ``all`` to run each
in its own process.  Every process pins BLAS to one thread.

``--trace 0`` runs the workload closed-loop for ``--seconds`` of op time
(and at least 100 ops, so the 90th percentile has ten samples beyond it),
checks every op's output, and starts five fresh processes to time set-up.
It prints the end-to-end metrics setup_s, items_per_s, op_ms_p50,
op_ms_p90 and peak_rss_mb; failed_ratio is printed on the summary lines
and carried by ``failed`` / ``attempted`` of the result.

Times are scaled to a reference machine speed (see ``calibration.py``):
the machine's speed swings with other tenants' load, and the scaled times
stay steady where raw wall times do not.  The raw figures are printed on
the summary lines and saved with the result.

``--trace 1`` runs the workload untraced for half of ``--seconds``, then a
fixed set of ops with spans recorded around every call into each layer,
and prints the per-layer metrics of ``tracing.LAYER_METRICS``.  The span
list goes to ``.bench_out/``.

The environment (versions, BLAS, CPU, thread pins) is printed on a ``#``
line and saved with the result under ``.bench_out/``.  The last line of
standard output is the JSON result, whose ``correct`` is false when any
op's output failed its gate.  The exit code is 0 whenever a result is
printed, and non-zero (with no result) when the benchmark cannot run, for
example in a directory without the package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import bootstrap

WORKLOAD_NAMES = ("fuzz_small_d", "pairs_d64", "figure_qubit", "oracle_xval")
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
MIN_OPS = 100
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Op indices of the warm-up op and of the traced ops; the timed loop counts
# up from 0, so the three never share inputs.
WARMUP_INDEX = 2_000_000
TRACE_FIRST_INDEX = 1_000_000
MAX_REPORTED_PROBLEMS = 5


@dataclass
class Loop:
    """Ops of one closed loop: raw wall times, speed scale factors, items."""

    items_per_op: int
    op_s: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def items(self) -> int:
        return self.items_per_op * len(self.op_s)

    @property
    def busy_s(self) -> float:
        return sum(self.op_s)

    @property
    def scaled_s(self) -> list[float]:
        return [t * f for t, f in zip(self.op_s, self.scale)]

    def items_per_s(self, times: list[float] | None = None) -> float:
        """Items over the summed op ``times`` (default: the scaled times)."""
        return self.items / sum(self.scaled_s if times is None else times)


def run_ops(workload, seed, first_index, seconds, min_ops, max_ops=None, tracer=None) -> Loop:
    """Closed loop from op ``first_index`` on; outputs are checked after the clock stops.

    Stops once the ops have taken ``seconds`` of wall time and at least
    ``min_ops`` ran, or after ``max_ops``.  The reference kernel runs
    between ops, outside the op's time.
    """
    import calibration

    kernel = calibration.ReferenceKernel()
    loop = Loop(workload.items_per_op)
    index = first_index
    kernel_before = kernel.seconds()
    while (loop.busy_s < seconds or len(loop.op_s) < min_ops) and (
        max_ops is None or len(loop.op_s) < max_ops
    ):
        inputs = workload.inputs(seed, index)
        if tracer is not None:
            tracer.op, tracer.active = index, True
        error = None
        start = time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception as exc:  # a failing op is counted, and the loop goes on
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        kernel_after = kernel.seconds()
        loop.op_s.append(elapsed)
        loop.scale.append(calibration.REFERENCE_S / max(kernel_before, kernel_after))
        kernel_before = kernel_after
        if error is not None:
            problems = ["".join(traceback.format_exception(error)).rstrip()]
        else:
            problems = workload.problems(inputs, output)
        if problems:
            loop.failed += 1
            if loop.failed <= MAX_REPORTED_PROBLEMS:
                print(f"# op {index} failed its gate: {problems}", file=sys.stderr)
        index += 1
    return loop


def setup_seconds(workload: str, seed: int) -> tuple[float, list[dict]]:
    """Median scaled set-up time over fresh processes, and each probe's record."""
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=bootstrap.ROOT
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return statistics.median(p["setup_s"] * p["scale"] for p in probes), probes


def environment() -> dict:
    import calibration
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "thread_pins": {k: os.environ[k] for k in bootstrap.BLAS_PINS},
        "reference_kernel_s": calibration.REFERENCE_S,
    }


def _percentiles_ms(times: list[float]) -> tuple[float, float]:
    ms = [1e3 * t for t in times]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def end_to_end(workload, args) -> tuple[Loop, dict, dict]:
    loop = run_ops(workload, args.seed, 0, args.seconds, MIN_OPS)
    setup_s, probes = setup_seconds(args.workload, args.seed)
    p50, p90 = _percentiles_ms(loop.scaled_s)
    values = {
        "setup_s": setup_s,
        "items_per_s": loop.items_per_s(),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    raw_p50, raw_p90 = _percentiles_ms(loop.op_s)
    ops = len(loop.op_s)
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes; raw {statistics.median(p['setup_s'] for p in probes)!r} s",
        "items_per_s": f"raw {loop.items_per_s(loop.op_s)!r}",
        "op_ms_p50": f"n={ops} ops; raw {raw_p50!r}",
        "op_ms_p90": f"n={ops} ops; raw {raw_p90!r}",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "ops": f"{ops} ops, {loop.items} items in {loop.busy_s:.3f} s of op time, "
        f"median speed scale {statistics.median(loop.scale):.4f}",
    }
    raw = {"op_s": loop.op_s, "scale": loop.scale}
    return loop, metrics, {"notes": notes, "setup_probes": probes, "raw": raw}


def traced(workload, args) -> tuple[Loop, dict, dict]:
    import tracing

    untraced = run_ops(workload, args.seed, 0, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        loop = run_ops(
            workload, args.seed, TRACE_FIRST_INDEX, 0.0, workload.trace_ops, workload.trace_ops, tracer
        )
    scale_by_op = dict(zip(range(TRACE_FIRST_INDEX, TRACE_FIRST_INDEX + len(loop.scale)), loop.scale))
    values = tracing.layer_metrics(tracer, loop.items, len(loop.op_s), scale_by_op)
    values["trace.overhead_ratio"] = untraced.items_per_s() / loop.items_per_s()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
    spans_path = bootstrap.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracing.write_spans(tracer, spans_path)
    combined = Loop(
        workload.items_per_op,
        untraced.op_s + loop.op_s,
        untraced.scale + loop.scale,
        untraced.failed + loop.failed,
    )
    notes = {
        "traced_ops": f"{len(loop.op_s)} ops, {loop.items} items, {len(tracer.spans)} spans",
        "untraced_ops": f"{len(untraced.op_s)} ops, {untraced.items} items",
    }
    return combined, metrics, {"notes": notes, "spans": str(spans_path.relative_to(bootstrap.ROOT))}


def run_one(args) -> int:
    import workloads

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    tmp = bootstrap.OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    try:
        workload = workloads.create(args.workload, tmp)
        workload.run(workload.inputs(args.seed, WARMUP_INDEX))
        loop, metrics, detail = (traced if args.trace else end_to_end)(workload, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = len(loop.op_s)
    result = {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in metrics.items():
        note = detail["notes"].get(name)
        print(f"# {name} {metric['value']!r} {metric['unit']}" + (f" ({note})" if note else ""))
    print(f"# failed_ratio {loop.failed / attempted!r} 1 ({loop.failed}/{attempted} ops)")
    for key, note in detail["notes"].items():
        if key not in metrics:
            print(f"# {key}: {note}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    record.update(environment=env, detail=detail)
    out = bootstrap.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bootstrap.ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"error: workload {name} printed no result (exit code {proc.returncode})")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    def non_negative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be a non-negative integer")
        return value

    def positive(text: str) -> float:
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be positive")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    bootstrap.prepare_process()
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.workload == "all" else run_one(arguments))
