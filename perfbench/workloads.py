"""Benchmark workloads for qdiffusion.

Each workload is one *pass*: a fixed list of operations ("ops") built from a
seed.  The seed only rotates the phase of coherent amplitudes and flips the
sign of the squeeze, so the work size is the same for every seed.  Every op
comes with a check of its output that does not depend on the route under
test, and with counts that follow from the inputs alone ("computed").

Building a workload is the benchmark's set-up: it parses every scenario
config and constructs every input state.
"""

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qdiffusion import channel, cli, fock, oracle, phase_space
from qdiffusion.phase_space import PFunctionAnalytic

WORKLOADS = ("default_sweep", "analytic_sweep", "p_transform")

#: every CLI cell's mean photon number must be within this share of n_in + tau
MEAN_PHOTON_RTOL = 1e-4
#: trace distance allowed between a P-transform output and its closed form
P_TRANSFORM_TOL = 1e-6
#: Mehta inversion error allowed, as a share of the analytic P at its peak
MEHTA_RTOL = 1e-4

ALL_ROUTES = ("kraus", "closed_form", "p_integral", "husimi_integral", "ode_oracle")


@dataclass(frozen=True)
class Outcome:
    """What one op produced, judged by the benchmark.

    exit_code is what `qdiffusion run` returns for the same scenario (0, or 3
    when the report lists tolerance failures); library ops always give 0.
    wrong is empty when the output passes the benchmark's own check.
    """

    exit_code: int = 0
    wrong: str = ""
    check_failures: int = 0
    report_bytes: int = 0


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    computed: dict  # per-pass counts derived from the inputs, not measured
    cutoff_dims: dict  # input kind -> resolved cutoff dim (CLI workloads)


def _seeded_inputs(seed: int):
    """Unit phase for coherent amplitudes and a sign for the squeeze."""
    rng = random.Random(seed)
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)), rng.choice((1.0, -1.0))


def _z_json(z: complex) -> list:
    return [z.real, z.imag]


def _output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _scenario_op(doc: dict, out_dir: Path):
    """One CLI op: parse_config + run_scenario on a fixed config document.

    Returns the op and the parsed config, whose resolved cutoff and Kraus
    order give the computed counts.
    """
    kind = doc["input"]["kind"]
    op_dir = out_dir / kind
    text = json.dumps(dict(doc, output_dir=str(op_dir)))
    cfg = cli.parse_config(text)
    rho0 = fock.density_from_vector(fock.state_vector(cfg.input, cfg.cutoff_dim))
    n_in = float(np.arange(cfg.cutoff_dim) @ np.diag(rho0.entries).real)

    def run():
        # module attributes are looked up at call time, so traced runs see
        # the span wrappers installed on `cli`
        return cli.run_scenario(cli.parse_config(text))

    def check(report) -> Outcome:
        wrong = ""
        for cell in report.results:
            expected = n_in + cell["tau"]
            if abs(cell["mean_photon"] - expected) > MEAN_PHOTON_RTOL * expected:
                wrong = (
                    f"{kind} {cell['route']} at tau={cell['tau']:g}: mean photon "
                    f"{cell['mean_photon']:.9g} != n_in + tau = {expected:.9g}"
                )
                break
        failures = report.checks["failures"]
        return Outcome(
            exit_code=0 if report.checks["all_passed"] else 3,
            wrong=wrong,
            check_failures=len(failures),
            report_bytes=_output_bytes(op_dir),
        )

    return Op(kind, run, check), cfg


def _kraus_order(cfg, tau: float) -> int:
    if cfg.kraus_max_index is not None:
        return cfg.kraus_max_index
    return channel.default_kraus_max_index(tau, cfg.cutoff_dim)


def _rk4_steps(tau: float) -> int:
    # mirrors cli._run_cell and oracle.integrate_master_equation
    if tau == 0:
        return 0
    t_final = tau / cli.ORACLE_KAPPA
    dt = min(cli.ORACLE_DT, tau / 4.0)
    return max(1, int(math.ceil(t_final / dt - 1e-12)))


def _cli_workload(name: str, docs: list, out_dir: Path) -> Workload:
    ops, dims = [], {}
    kraus_ops = kraus_bytes = rk4 = pairs = 0
    for doc in docs:
        op, cfg = _scenario_op(doc, out_dir)
        ops.append(op)
        dims[cfg.input.kind] = cfg.cutoff_dim
        n_routes = len(cfg.routes)
        pairs += len(cfg.tau_values) * n_routes * (n_routes - 1) // 2
        for tau in cfg.tau_values:
            if "kraus" in cfg.routes and tau > 0:
                size = (_kraus_order(cfg, tau) + 1) ** 2
                kraus_ops += size
                kraus_bytes = max(kraus_bytes, size * cfg.cutoff_dim**2 * 16)
            if "ode_oracle" in cfg.routes:
                rk4 += _rk4_steps(tau)
    computed = {
        "channel.kraus_ops": kraus_ops,
        "channel.kraus_tensor_mb": kraus_bytes / 1e6,
        "oracle.rk4_steps": rk4,
        "channel.p_integral_nodes": 0,  # the CLI only integrates delta P-functions
        "cli.trace_distance_pairs": pairs,
    }
    return Workload(name, tuple(ops), computed, dims)


def _default_sweep(seed: int, out_dir: Path, smoke: bool) -> Workload:
    """The README's default config shape for each input family: every
    applicable route, "auto" cutoff and "auto" Kraus order."""
    phase, sign = _seeded_inputs(seed)
    taus = [0.25] if smoke else [0.5, 2.0]
    common = {"tau_values": taus, "cutoff_dim": "auto", "kraus_max_index": "auto"}
    no_p = [r for r in ALL_ROUTES if r != "p_integral"]
    docs = [
        dict(common, input={"kind": "coherent", "z": _z_json(1.0 * phase)},
             routes=list(ALL_ROUTES),
             outputs=["report", "pfun_grid", "photon_trajectory"]),
        dict(common, input={"kind": "number", "l": 3},
             routes=no_p, outputs=["report", "photon_trajectory"]),
        dict(common, input={"kind": "squeezed_vacuum", "squeeze": 1.0 * sign},
             routes=no_p, outputs=["report", "photon_trajectory"]),
    ]
    return _cli_workload("default_sweep", docs, out_dir)


def _analytic_sweep(seed: int, out_dir: Path, smoke: bool) -> Workload:
    """Closed-form and cross-element routes (plus the delta P-integral for the
    coherent input) over a dense tau grid at an explicit cutoff: no Kraus and
    no RK4."""
    phase, sign = _seeded_inputs(seed)
    taus = [0.25, 1.0] if smoke else [0.25 * k for k in range(1, 17)]
    common = {"tau_values": taus, "cutoff_dim": 64 if smoke else 192,
              "outputs": ["report", "photon_trajectory"]}
    docs = [
        dict(common, input={"kind": "coherent", "z": _z_json((2.0 + 1.0j) * phase)},
             routes=["closed_form", "husimi_integral", "p_integral"]),
        dict(common, input={"kind": "number", "l": 6},
             routes=["closed_form", "husimi_integral"]),
        dict(common, input={"kind": "squeezed_vacuum", "squeeze": 1.0 * sign},
             routes=["closed_form", "husimi_integral"]),
    ]
    return _cli_workload("analytic_sweep", docs, out_dir)


def _close_to(expected: fock.DensityMatrix, what: str):
    def check(state) -> Outcome:
        dist = fock.trace_distance(state, expected)
        if not dist <= P_TRANSFORM_TOL:
            return Outcome(wrong=f"{what}: trace distance {dist:.3e} > {P_TRANSFORM_TOL:.0e}")
        return Outcome()

    return check


def _p_transform(seed: int, out_dir: Path, smoke: bool) -> Workload:
    """Library-level phase-space transforms that the CLI never reaches.

    * Gaussian P(z, s) evolved by tau through the P-integral (one ordered
      kernel per grid node, with the grid-refinement check) must give the
      closed form coherent_output(z, s + tau);
    * the forward transform of P(z, s) must give coherent_output(z, s);
    * Mehta inversions of coherent_output(z, s) with s = 0.5 photons of
      thermal noise must give the analytic P(z, s).
    """
    phase, _ = _seeded_inputs(seed)
    z = 1.0 * phase
    dim = 24
    grid = oracle.ComplexGrid(radius=5.0, points_per_axis=40 if smoke else 48)
    ops, nodes = [], 0
    for s, tau in [(1.0, 1.0)] if smoke else [(0.5, 0.5), (1.0, 1.0)]:
        p = PFunctionAnalytic.gaussian(z, s)
        expected = channel.coherent_output(z, s + tau, dim)
        ops.append(Op(
            "evolve",
            lambda p=p, tau=tau: channel.evolve_via_p_integral(p, tau, grid, dim),
            _close_to(expected, f"P-integral of P(z, {s:g}) at tau={tau:g}"),
        ))
        nodes += grid.points_per_axis**2 + grid.refined().points_per_axis**2

    s_fwd = 0.5
    p_fwd = PFunctionAnalytic.gaussian(z, s_fwd)
    ops.append(Op(
        "forward",
        lambda: phase_space.rho_from_p(p_fwd, dim, grid),
        _close_to(channel.coherent_output(z, s_fwd, dim), "rho_from_p of P(z, 0.5)"),
    ))

    s_inv = 0.5
    mehta_grid = oracle.ComplexGrid(radius=6.0, points_per_axis=64)
    rho = channel.coherent_output(z, s_inv, 80)
    offsets = [0.0, 0.4j] if smoke else [0.0, 0.3, -0.3, 0.3j, -0.3j, 0.6 + 0.6j]
    for offset in offsets:
        alpha = z + offset
        expected = math.exp(-abs(offset) ** 2 / s_inv) / s_inv

        def check(value, alpha=alpha, expected=expected) -> Outcome:
            err = abs(value - expected)
            if not err <= MEHTA_RTOL / s_inv:
                return Outcome(wrong=f"Mehta P at {alpha:.3f}: {value:.9g} != {expected:.9g}")
            return Outcome()

        ops.append(Op(
            "mehta",
            lambda alpha=alpha: phase_space.p_from_rho_mehta(rho, alpha, mehta_grid),
            check,
        ))

    computed = {
        "channel.kraus_ops": 0,
        "channel.kraus_tensor_mb": 0.0,
        "oracle.rk4_steps": 0,
        "channel.p_integral_nodes": nodes,
        "cli.trace_distance_pairs": 0,
    }
    return Workload("p_transform", tuple(ops), computed, {})


def build(name: str, seed: int, out_dir: Path, smoke: bool = False) -> Workload:
    """Parse every config and construct every input state of one workload.

    smoke shrinks the inputs so that the harness self-test runs in seconds.
    """
    builders = {
        "default_sweep": _default_sweep,
        "analytic_sweep": _analytic_sweep,
        "p_transform": _p_transform,
    }
    return builders[name](seed, Path(out_dir), smoke)
