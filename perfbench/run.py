"""qdiffusion benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload default_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Ops run serially, in whole passes over the workload's op list, until the run
has lasted --seconds and made at least MIN_OPS ops.  Every op's output is
checked by the benchmark itself (see workloads.py).

--trace 0 prints the end-to-end metrics: ops per second, median and tail op
time, tracemalloc peak of one extra untimed pass, set-up time (median of
several fresh interpreters), and the share of ops that succeed.
--trace 1 alternates untraced passes with passes traced by span wrappers
(spans.py), prints the per-layer metrics and the tracing overhead, and writes
the spans to .perfbench/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The layer map is in perfbench/LAYERS.md.
"""

import os

# Pin BLAS and OpenMP to one thread before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: enough ops that a tail percentile with 10 ops beyond it exists
MIN_OPS = 11
#: fresh interpreters whose set-up time is measured in each --trace 0 run
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_mem_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

#: per-layer metric -> (unit, source); sources: "spans" (wrapped calls, per
#: pass), "tracemalloc" (one untimed traced pass), "computed" (from the
#: inputs alone, repeats exactly), "report" (from the program's outputs)
PER_LAYER = {
    "channel.build_kraus_set.calls": ("count", "spans"),
    "channel.build_kraus_set.self_s": ("s", "spans"),
    "channel.build_kraus_set.peak_mb": ("MB", "tracemalloc"),
    "channel.kraus_evolve.self_s": ("s", "spans"),
    "channel.kraus_ops": ("count", "computed"),
    "channel.kraus_tensor_mb": ("MB", "computed"),
    "oracle.integrate_master_equation.calls": ("count", "spans"),
    "oracle.integrate_master_equation.self_s": ("s", "spans"),
    "oracle.rk4_steps": ("count", "computed"),
    "fock.ordered_gaussian_kernel.calls": ("count", "spans"),
    "fock.ordered_gaussian_kernel.self_s": ("s", "spans"),
    "channel.p_integral_nodes": ("count", "computed"),
    "channel.evolve_via_p_integral.self_s": ("s", "spans"),
    "channel.coherent_output.self_s": ("s", "spans"),
    "channel.number_output.self_s": ("s", "spans"),
    "channel.squeezed_output.self_s": ("s", "spans"),
    "channel.resolve_squeezed_sign.self_s": ("s", "spans"),
    "channel.evolve_via_husimi_integral.self_s": ("s", "spans"),
    "special.moment_term_coefficients.calls": ("count", "spans"),
    "special.moment_term_coefficients.self_s": ("s", "spans"),
    "fock.state_metrics.calls": ("count", "spans"),
    "fock.state_metrics.self_s": ("s", "spans"),
    "fock.trace_distance.calls": ("count", "spans"),
    "fock.trace_distance.self_s": ("s", "spans"),
    "cli.trace_distance_pairs": ("count", "computed"),
    "cli.run_scenario.self_s": ("s", "spans"),
    "cli.report_bytes": ("bytes", "report"),
    "phase_space.rho_from_p.self_s": ("s", "spans"),
    "phase_space.p_from_rho_mehta.calls": ("count", "spans"),
    "phase_space.p_from_rho_mehta.self_s": ("s", "spans"),
    "oracle.ComplexGrid.nodes_weights.self_s": ("s", "spans"),
    "cli.cutoff_dim.coherent": ("count", "computed"),
    "cli.cutoff_dim.number": ("count", "computed"),
    "cli.cutoff_dim.squeezed_vacuum": ("count", "computed"),
    "cli.check_failures": ("count", "report"),
    "trace.overhead_ratio": ("ratio", "spans"),
}


@dataclass
class Loop:
    """Result of running whole passes of a workload."""

    op_times: list = field(default_factory=list)
    op_labels: list = field(default_factory=list)
    pass_times: list = field(default_factory=list)  # sum of the pass's op times
    failed: int = 0
    wrong: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    check_failures: int = 0
    report_bytes: int = 0
    wall: float = 0.0

    @property
    def passes(self) -> int:
        return len(self.pass_times)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list
    tracer: object = None
    traced_s: float = 0.0  # op time of the traced passes


def require_source() -> None:
    """Import qdiffusion from this checkout's src/, or exit without a result."""
    if not (SRC / "qdiffusion" / "__init__.py").is_file():
        sys.exit(f"error: no qdiffusion sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qdiffusion

    if SRC.resolve() not in Path(qdiffusion.__file__).resolve().parents:
        sys.exit(f"error: qdiffusion was imported from {qdiffusion.__file__}, not {SRC}")


def run_pass(workload, loop: Loop, tracer=None) -> None:
    """Run every op of the workload once, recording into `loop`.

    An op fails when it raises, when the program reports a tolerance failure
    (exit 3) or when its output fails the benchmark's check.
    """
    first = len(loop.op_times)
    for op in workload.ops:
        loop.op_labels.append(op.label)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span(f"op.{op.label}"):
                    out = op.run()
        except Exception as exc:  # any raise is a failed op; keep measuring
            loop.failed += 1
            loop.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            loop.op_times.append(time.perf_counter() - t0)
        outcome = op.check(out)
        loop.check_failures += outcome.check_failures
        loop.report_bytes += outcome.report_bytes
        if outcome.wrong:
            loop.wrong.append(outcome.wrong)
        if outcome.wrong or outcome.exit_code != 0:
            loop.failed += 1
    loop.pass_times.append(sum(loop.op_times[first:]))


def run_passes(workload, seconds: float) -> Loop:
    """Run whole passes until `seconds` have passed and MIN_OPS ops ran."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        run_pass(workload, loop)
        loop.wall = time.perf_counter() - start
        if loop.wall >= seconds and len(loop.op_times) >= MIN_OPS:
            return loop


def tail(times: list):
    """Highest percentile with at least 10 ops beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def median_by_label(loop: Loop) -> dict:
    by_label = {}
    for label, t in zip(loop.op_labels, loop.op_times):
        by_label.setdefault(label, []).append(t)
    return {label: statistics.median(times) for label, times in by_label.items()}


def measure_setup(workload: str, seed: int, out_dir: Path, smoke: bool) -> list:
    """Set-up seconds (import, config parsing, input states) in fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
           str(out_dir), "1" if smoke else "0"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_memory_mb(workload) -> float:
    """tracemalloc peak of one untimed pass, in MB."""
    tracemalloc.start()
    try:
        run_pass(workload, Loop())
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def blas_threads() -> str:
    """Threads OpenBLAS reports, when numpy's bundled OpenBLAS can be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return str(getter())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (pinned; not queryable)"


def environment() -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": nproc,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float, setup_times: list) -> RunResult:
    loop = run_passes(workload, seconds)
    attempted = len(loop.op_times)
    tail_s, tail_pct = tail(loop.op_times)
    values = {
        # the median pass, so that a burst of load on a shared machine moves
        # one pass, not the throughput of the run
        "ops_per_s": len(workload.ops) / statistics.median(loop.pass_times),
        "op_p50_s": statistics.median(loop.op_times),
        "op_tail_s": tail_s,
        "peak_mem_mb": peak_memory_mb(workload),
        "setup_s": statistics.median(setup_times),
        "ok_frac": 1.0 - loop.failed / attempted,
    }
    notes = [
        f"ops: {attempted} in {loop.passes} passes, {loop.wall:.2f} s",
        f"op_tail_s is p{tail_pct:.1f} of {attempted} ops (10 ops beyond it)",
        "median op time by op: " + ", ".join(
            f"{label} {t:.4f} s" for label, t in median_by_label(loop).items()),
        f"fail_frac = {loop.failed}/{attempted} = {loop.failed / attempted:.4f}",
        f"setup_s is the median of {len(setup_times)} fresh interpreters: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    notes += [f"wrong output: {w}" for w in dict.fromkeys(loop.wrong)]
    notes += [f"raised: {e}" for e in dict.fromkeys(loop.errors)]
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return RunResult(not loop.wrong, attempted, loop.failed, metrics, notes)


def per_layer(workload, seconds: float) -> RunResult:
    from spans import Tracer, instrument

    # alternate untraced and traced passes, so that the tracing overhead
    # compares passes made under the same machine load
    tracer = Tracer()
    untraced, traced = Loop(), Loop()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced.op_times) < MIN_OPS:
        run_pass(workload, untraced)
        with instrument(tracer):
            run_pass(workload, traced, tracer)
    mem_tracer = Tracer(track_memory=True)
    tracemalloc.start()
    try:
        with instrument(mem_tracer):
            run_pass(workload, Loop(), mem_tracer)
    finally:
        tracemalloc.stop()

    passes = traced.passes
    layers = tracer.by_name()
    mem_layers = mem_tracer.by_name()
    values = dict(workload.computed)
    for kind in ("coherent", "number", "squeezed_vacuum"):
        values[f"cli.cutoff_dim.{kind}"] = workload.cutoff_dims.get(kind, 0)
    values["cli.check_failures"] = traced.check_failures / passes
    values["cli.report_bytes"] = traced.report_bytes / passes
    values["channel.build_kraus_set.peak_mb"] = (
        mem_layers.get("channel.build_kraus_set", {}).get("peak_mb", 0.0))
    overhead = statistics.median(traced.pass_times) / statistics.median(untraced.pass_times)
    values["trace.overhead_ratio"] = overhead
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name not in values:
            values[name] = layers.get(layer, {}).get(stat, 0) / passes

    attempted = len(traced.op_times)
    notes = [
        f"traced ops: {attempted} in {passes} passes, {sum(traced.pass_times):.2f} s of op time; "
        f"per-layer times and calls are per traced pass",
        f"tracing overhead: median traced pass {statistics.median(traced.pass_times):.4f} s "
        f"vs median untraced pass {statistics.median(untraced.pass_times):.4f} s "
        f"({untraced.passes} untraced passes alternating with the traced ones)",
        f"spans: {len(tracer.names)}",
    ]
    metrics = {name: _metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    return RunResult(not traced.wrong, attempted, traced.failed, metrics, notes,
                     tracer=tracer, traced_s=sum(traced.pass_times))


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> RunResult:
    """Build the workload in a scratch directory of the checkout and measure it."""
    import workloads

    work = ROOT / ".perfbench"
    out_dir = work / f"out-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = [] if trace else measure_setup(workload_name, seed, out_dir / "probe", smoke)
        workload = workloads.build(workload_name, seed, out_dir, smoke)
        if not trace:
            return end_to_end(workload, seconds, setup_times)
        result = per_layer(workload, seconds)
        result.tracer.write(
            work / f"trace-{workload_name}-{seed}.json",
            {"workload": workload_name, "seed": seed, "seconds": seconds},
        )
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one qdiffusion workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    env = environment()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + ", ".join(f"{key} {value}" for key, value in env.items()))
    for note in result.notes:
        print(note)
    for name, metric in result.metrics.items():
        source = f" [{PER_LAYER[name][1]}]" if args.trace else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{source}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
