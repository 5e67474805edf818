"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload, at smoke size, it checks that
  * an untraced run emits every end-to-end metric of BENCHMARK.json, and a
    traced run every per-layer metric, each with its unit;
  * the traced self times are non-negative and add up to no more than the
    traced wall time;
  * a forced wrong output counts as a failed op and makes the run incorrect.
Exits 1 on the first failed check.
"""

import json
import math
import sys

import run  # pins BLAS threads before numpy is imported

run.require_source()

from qdiffusion import channel, cli, fock  # noqa: E402

#: the route each workload's forced fault corrupts, as the op's module binds it
FAULTS = {
    "default_sweep": (cli, "evolve_via_husimi_integral"),
    "analytic_sweep": (cli, "evolve_via_husimi_integral"),
    "p_transform": (channel, "evolve_via_p_integral"),
}


def shifted(fn):
    """Wrap a route so 1% of its output's weight moves from |0> to |1>:
    the trace is kept and the mean photon number is off by 0.01."""

    def broken(*args, **kwargs):
        state = fn(*args, **kwargs)
        entries = state.entries.copy()
        entries[0, 0] -= 0.01
        entries[1, 1] += 0.01
        return fock.DensityMatrix(entries, label=state.label)

    return broken


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def check_metrics(result, declared: list, what: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    expect(set(result.metrics) == set(units),
           f"{what} emits {sorted(result.metrics)}, BENCHMARK.json declares {sorted(units)}")
    for name, metric in result.metrics.items():
        expect(metric["unit"] == units[name], f"{what} {name} has unit {metric['unit']}")
        expect(math.isfinite(metric["value"]), f"{what} {name} is {metric['value']}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in spec["workloads"]]:
        plain = run.measure(workload, seed=1, seconds=0.0, trace=False, smoke=True)
        check_metrics(plain, spec["end_to_end"], f"{workload} untraced")
        expect(plain.correct, f"{workload} untraced run is not correct: {plain.notes}")

        traced = run.measure(workload, seed=1, seconds=0.0, trace=True, smoke=True)
        check_metrics(traced, spec["per_layer"], f"{workload} traced")
        own = traced.tracer.self_times_ns()
        expect(min(own) >= 0, f"{workload} has a negative self time")
        expect(sum(own) * 1e-9 <= traced.traced_s,
               f"{workload} self times {sum(own) * 1e-9:.6f} s exceed the traced op time "
               f"{traced.traced_s:.6f} s")

        owner, attr = FAULTS[workload]
        original = getattr(owner, attr)
        setattr(owner, attr, shifted(original))
        try:
            faulty = run.measure(workload, seed=1, seconds=0.0, trace=False, smoke=True)
        finally:
            setattr(owner, attr, original)
        expect(not faulty.correct, f"{workload}: a wrong output passed the check")
        expect(faulty.failed / faulty.attempted > plain.failed / plain.attempted,
               f"{workload}: a wrong output did not raise fail_frac")
        print(f"selftest {workload}: ok ({plain.attempted} ops, {len(own)} spans, "
              f"fail_frac {plain.failed}/{plain.attempted} -> "
              f"{faulty.failed}/{faulty.attempted} with a forced wrong output)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
