"""Scenario runner.

Parses a JSON config describing one input state and a tau sweep, executes
every requested route, cross-checks the outputs pairwise, and writes a
machine-readable report plus optional phase-space and trajectory grids.

Exit codes: 0 success, 2 schema error, 3 tolerance failure,
4 truncation loss, 5 internal numerical error or out of memory.
"""

import argparse
import dataclasses
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import (
    QDiffusionError,
    SchemaError,
    TruncationLoss,
    UnsupportedRouteForInput,
)
from .fock import (
    DensityMatrix,
    StateSpec,
    default_cutoff_dim,
    density_from_vector,
    state_metrics,
    state_vector,
    trace_distance,
)
from .oracle import ComplexGrid, integrate_master_equation
from .channel import (
    MAX_SQUEEZE,
    build_kraus_set,
    coherent_output,
    completeness_residual,
    default_kraus_max_index,
    evolve_via_husimi_integral,
    evolve_via_p_integral,
    kraus_evolve,
    number_output,
    resolve_squeezed_sign,  # noqa: F401 -- perfbench/spans.py wraps cli.resolve_squeezed_sign
    squeezed_output,
)
from .phase_space import PFunctionAnalytic, p_coherent_evolved

ROUTES = ("kraus", "closed_form", "p_integral", "husimi_integral", "ode_oracle")
OUTPUTS = ("report", "pfun_grid", "photon_trajectory")

#: routes whose results come from grid quadrature get the looser tolerances
QUADRATURE_ROUTES = frozenset({"p_integral"})

TRACE_TOL = 1e-6
TRACE_TOL_QUADRATURE = 1e-5
PAIR_TOL = 1e-6
PAIR_TOL_QUADRATURE = 1e-5
PSD_TOL = 1e-9
PSD_TOL_QUADRATURE = 1e-6

#: fixed integrator settings for the ode_oracle route (tau = kappa * t)
ORACLE_KAPPA = 1.0
ORACLE_DT = 0.002


@dataclass(frozen=True)
class ScenarioConfig:
    input: StateSpec
    tau_values: tuple
    cutoff_dim: int
    kraus_max_index: Optional[int]  # None means the per-tau default rule
    routes: tuple
    grid: ComplexGrid
    outputs: tuple
    output_dir: str


@dataclass
class EvolutionReport:
    config_echo: dict
    metadata: dict
    results: list
    pairwise: list
    checks: dict
    timings: dict

    def as_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "metadata": self.metadata,
            "results": self.results,
            "pairwise": self.pairwise,
            "checks": self.checks,
            "timings": self.timings,
        }


def _require_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}" if path else key, "missing required key")


def _is_real(value) -> bool:
    """A finite JSON number; true/false, NaN and +-Infinity are not."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _parse_real(value, path: str) -> float:
    if not _is_real(value):
        raise SchemaError(path, "expected a finite real number")
    return float(value)


def _parse_int(value, path: str, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise SchemaError(path, f"expected an integer >= {low}")
    return value


def _parse_complex(value, path: str) -> complex:
    if _is_real(value):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(_is_real(v) for v in value)
    ):
        return complex(value[0], value[1])
    raise SchemaError(path, "expected a finite number or a [re, im] pair")


def _parse_input(obj, path: str) -> StateSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "kind" not in obj:
        raise SchemaError(f"{path}.kind", "missing required key")
    kind = obj["kind"]
    if kind == "coherent":
        _require_keys(obj, {"kind", "z"}, {"kind", "z"}, path)
        return StateSpec.coherent(_parse_complex(obj["z"], f"{path}.z"))
    if kind == "number":
        _require_keys(obj, {"kind", "l"}, {"kind", "l"}, path)
        return StateSpec.number(_parse_int(obj["l"], f"{path}.l", 0))
    if kind == "squeezed_vacuum":
        _require_keys(obj, {"kind", "squeeze"}, {"kind", "squeeze"}, path)
        return StateSpec.squeezed_vacuum(_parse_real(obj["squeeze"], f"{path}.squeeze"))
    raise SchemaError(f"{path}.kind", f"unknown state kind {kind!r}")


def _resolve_auto_dim(spec: StateSpec, tau_max: float, wants_kraus: bool,
                      kmax: Optional[int]) -> int:
    dim = default_cutoff_dim(spec.input_mean_photon(), tau_max)
    if spec.kind == "number":
        dim = max(dim, 2 * spec.l + 2)
    if wants_kraus:
        # leave headroom above the default Kraus order at this cutoff
        while dim < default_kraus_max_index(tau_max, dim) + 4:
            dim += 4
        if kmax is not None:
            dim = max(dim, kmax + 4)
    return dim


def parse_config(text: str) -> ScenarioConfig:
    """Validate a JSON scenario document and resolve its "auto" fields."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("<document>", "expected a JSON object")

    allowed = {
        "input", "tau_values", "cutoff_dim", "kraus_max_index",
        "routes", "grid", "outputs", "output_dir",
    }
    _require_keys(raw, allowed, {"input", "tau_values", "routes"}, "")

    spec = _parse_input(raw["input"], "input")

    taus = raw["tau_values"]
    if not isinstance(taus, list) or not taus:
        raise SchemaError("tau_values", "expected a non-empty list")
    taus = tuple(_parse_real(t, f"tau_values[{i}]") for i, t in enumerate(taus))
    for i, t in enumerate(taus):
        if t < 0:
            raise SchemaError(f"tau_values[{i}]", "expected a real number >= 0")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise SchemaError("tau_values", "values must be strictly ascending")

    routes = raw["routes"]
    if not isinstance(routes, list) or not routes:
        raise SchemaError("routes", "expected a non-empty list")
    for i, r in enumerate(routes):
        if r not in ROUTES:
            raise SchemaError(f"routes[{i}]", f"unknown route {r!r}")
    if len(set(routes)) != len(routes):
        raise SchemaError("routes", "duplicate route")
    if "p_integral" in routes and spec.kind != "coherent":
        raise UnsupportedRouteForInput(
            "p_integral needs an analytic P-function; only coherent inputs are supported"
        )
    if "closed_form" in routes and abs(spec.squeeze) > MAX_SQUEEZE:
        raise UnsupportedRouteForInput(f"closed_form needs |squeeze| <= {MAX_SQUEEZE}")
    routes = tuple(routes)

    grid_obj = raw.get("grid", {})
    if not isinstance(grid_obj, dict):
        raise SchemaError("grid", "expected an object")
    _require_keys(grid_obj, {"radius", "points_per_axis", "rule"}, set(), "grid")
    radius = _parse_real(grid_obj.get("radius", 7.0), "grid.radius")
    points = _parse_int(grid_obj.get("points_per_axis", 64), "grid.points_per_axis", 16)
    rule = grid_obj.get("rule", "gauss_legendre_tensor")
    if radius <= 0:
        raise SchemaError("grid.radius", "expected a positive number")
    if rule not in ("midpoint", "gauss_legendre_tensor"):
        raise SchemaError("grid.rule", f"unknown rule {rule!r}")
    grid = ComplexGrid(radius=radius, points_per_axis=points, rule=rule)

    outputs = raw.get("outputs", ["report"])
    if not isinstance(outputs, list):
        raise SchemaError("outputs", "expected a list")
    for i, o in enumerate(outputs):
        if o not in OUTPUTS:
            raise SchemaError(f"outputs[{i}]", f"unknown output {o!r}")
    if "pfun_grid" in outputs and spec.kind != "coherent":
        raise SchemaError("outputs", "pfun_grid is only defined for coherent inputs")
    outputs = tuple(outputs)

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise SchemaError("output_dir", "expected a string")

    kmax_raw = raw.get("kraus_max_index", "auto")
    kmax = None if kmax_raw == "auto" else _parse_int(kmax_raw, "kraus_max_index", 1)

    cutoff = raw.get("cutoff_dim", "auto")
    if cutoff == "auto":
        try:
            dim = _resolve_auto_dim(spec, max(taus), "kraus" in routes, kmax)
        except OverflowError as exc:
            raise SchemaError("cutoff_dim", f'"auto" cannot size this input: {exc}') from exc
    else:
        dim = _parse_int(cutoff, "cutoff_dim", 2)
    if spec.kind == "number" and spec.l >= dim:
        raise SchemaError("cutoff_dim", f"cutoff {dim} cannot hold number state l={spec.l}")
    if kmax is not None and kmax >= dim:
        raise SchemaError("kraus_max_index", f"must be below cutoff_dim={dim}")

    return ScenarioConfig(
        input=spec,
        tau_values=taus,
        cutoff_dim=dim,
        kraus_max_index=kmax,
        routes=routes,
        grid=grid,
        outputs=outputs,
        output_dir=output_dir,
    )


def _closed_form(spec: StateSpec, tau: float, dim: int) -> DensityMatrix:
    if spec.kind == "coherent":
        return coherent_output(spec.z, tau, dim)
    if spec.kind == "number":
        return number_output(spec.l, tau, dim)
    return squeezed_output(spec.squeeze, tau, dim)


def _run_cell(cfg: ScenarioConfig, rho0: DensityMatrix, route: str, tau: float,
              oracle_start: tuple):
    """One (route, tau) evolution; returns (state, extra metric dict).

    The ode_oracle route continues from oracle_start, the (tau, state) it
    reached at the previous tau of the sweep, or (0, rho0).
    """
    dim = cfg.cutoff_dim
    extra = {}
    if route == "kraus":
        kmax = cfg.kraus_max_index
        if kmax is None:
            kmax = default_kraus_max_index(tau, dim)
        ks = build_kraus_set(tau, kmax, dim)
        state = kraus_evolve(rho0, ks)
        extra["completeness_residual"] = completeness_residual(ks)
        extra["kraus_max_index"] = ks.max_index
    elif route == "closed_form":
        state = _closed_form(cfg.input, tau, dim)
        if cfg.input.kind == "squeezed_vacuum" and tau > 0:
            # the unsigned body's vacuum entry sech(r)/sqrt(G) is positive
            extra["sign_resolution"] = 1 if state.entries[0, 0].real > 0 else -1
    elif route == "p_integral":
        state = evolve_via_p_integral(
            PFunctionAnalytic.delta(cfg.input.z), tau, cfg.grid, dim
        )
    elif route == "husimi_integral":
        state = evolve_via_husimi_integral(rho0, cfg.input, tau, dim)
    elif route == "ode_oracle":
        if tau == 0:
            state = DensityMatrix(rho0.entries.copy(), label="ode_oracle")
        else:
            tau_prev, start = oracle_start
            # 1/(2 dim kappa) keeps h times the generator's spectral radius
            # (below 4 dim kappa) under 2, inside RK4's stability interval;
            # a span whose quarter underflows to 0 is taken in one step
            span = tau - tau_prev
            dt = min(ORACLE_DT, span / 4.0, 1.0 / (2.0 * dim * ORACLE_KAPPA)) or span
            state = integrate_master_equation(start, ORACLE_KAPPA, span / ORACLE_KAPPA, dt)
    else:  # pragma: no cover - parse_config rejects unknown routes
        raise ValueError(f"unknown route {route!r}")
    return state, extra


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise QDiffusionError(f"non-finite metric {x!r} in report")
    return format(float(x), ".17g")


def _dump_json_17g(obj, indent: int = 0) -> str:
    """JSON serialization printing every float with 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_dump_json_17g(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dump_json_17g(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _echo_input(spec: StateSpec) -> dict:
    if spec.kind == "coherent":
        return {"kind": spec.kind, "z": [spec.z.real, spec.z.imag]}
    if spec.kind == "number":
        return {"kind": spec.kind, "l": spec.l}
    return {"kind": spec.kind, "squeeze": spec.squeeze}


def run_scenario(cfg: ScenarioConfig) -> EvolutionReport:
    """Execute every requested (route, tau) cell, cross-check, write outputs.

    Cells run in (tau, route) order; the ode_oracle route integrates once
    along the ascending taus, each cell continuing from the previous one.
    Each tau's route pairs are compared right after its cells, so only one
    tau's states are held at a time.
    """
    dim = cfg.cutoff_dim
    rho0 = density_from_vector(state_vector(cfg.input, dim), label="input")

    results = []
    pairwise = []
    timings = {}
    failures = []
    pair_failures = []  # reported after every cell failure
    oracle_start = (0.0, rho0)
    t_start = time.perf_counter()
    for tau in cfg.tau_values:
        states = {}
        for route in cfg.routes:
            t0 = time.perf_counter()
            state, extra = _run_cell(cfg, rho0, route, tau, oracle_start)
            elapsed = time.perf_counter() - t0
            if route == "ode_oracle":
                oracle_start = (tau, state)
            states[route] = state
            metrics = state_metrics(state)
            trace_tol = TRACE_TOL_QUADRATURE if route in QUADRATURE_ROUTES else TRACE_TOL
            psd_tol = PSD_TOL_QUADRATURE if route in QUADRATURE_ROUTES else PSD_TOL
            entry = {
                "tau": tau,
                "route": route,
                "trace": metrics.trace,
                "mean_photon": metrics.mean_photon,
                "purity": metrics.purity,
                "min_eigenvalue": metrics.min_eigenvalue,
                "hermiticity_residual": metrics.hermiticity_residual,
                "truncation_loss": abs(1.0 - metrics.trace),
            }
            entry.update(extra)
            results.append(entry)
            timings[f"{route}@tau={tau:g}"] = elapsed
            if abs(metrics.trace - 1.0) > trace_tol:
                failures.append(
                    f"trace of {route} at tau={tau:g} deviates by "
                    f"{abs(metrics.trace - 1.0):.3e} > {trace_tol:.1e}"
                )
            if metrics.min_eigenvalue < -psd_tol * dim:
                failures.append(
                    f"min eigenvalue of {route} at tau={tau:g} is "
                    f"{metrics.min_eigenvalue:.3e} < -{psd_tol:.1e}*dim"
                )

        for ra, rb in itertools.combinations(cfg.routes, 2):
            dist = trace_distance(states[ra], states[rb])
            quad = ra in QUADRATURE_ROUTES or rb in QUADRATURE_ROUTES
            tol = PAIR_TOL_QUADRATURE if quad else PAIR_TOL
            pairwise.append(
                {"tau": tau, "route_a": ra, "route_b": rb, "trace_distance": dist}
            )
            if dist > tol:
                pair_failures.append(
                    f"trace distance {ra}|{rb} at tau={tau:g} is "
                    f"{dist:.3e} > {tol:.1e}"
                )
    failures += pair_failures

    timings["total"] = time.perf_counter() - t_start
    report = EvolutionReport(
        config_echo={
            "input": _echo_input(cfg.input),
            "tau_values": list(cfg.tau_values),
            "cutoff_dim": cfg.cutoff_dim,
            "kraus_max_index": "auto" if cfg.kraus_max_index is None else cfg.kraus_max_index,
            "routes": list(cfg.routes),
            "grid": {
                "radius": cfg.grid.radius,
                "points_per_axis": cfg.grid.points_per_axis,
                "rule": cfg.grid.rule,
            },
            "outputs": list(cfg.outputs),
            "output_dir": cfg.output_dir,
        },
        metadata={
            "qdiffusion_version": __version__,
            "numpy_version": np.__version__,
            "python_version": sys.version.split()[0],
        },
        results=results,
        pairwise=pairwise,
        checks={"failures": failures, "all_passed": not failures},
        timings=timings,
    )

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if "report" in cfg.outputs:
        (out_dir / "report.json").write_text(
            _dump_json_17g(report.as_dict()) + "\n", encoding="utf-8"
        )
    if "photon_trajectory" in cfg.outputs:
        lines = ["tau,route,mean_photon"]
        for entry in results:
            lines.append(
                f'{_format_float(entry["tau"])},{entry["route"]},'
                f'{_format_float(entry["mean_photon"])}'
            )
        (out_dir / "photon_trajectory.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
    if "pfun_grid" in cfg.outputs:
        nodes, _ = cfg.grid.nodes_weights()
        for tau in cfg.tau_values:
            if tau == 0:
                continue  # the P-function is a delta spike at tau = 0
            lines = ["re_alpha,im_alpha,p_value"]
            values = p_coherent_evolved(nodes, cfg.input.z, tau)
            for alpha, val in zip(nodes, values):
                lines.append(
                    f"{_format_float(alpha.real)},{_format_float(alpha.imag)},"
                    f"{_format_float(val)}"
                )
            (out_dir / f"pfun_{tau:g}.csv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiffusion",
        description="Run diffusion-channel scenarios and cross-check every route.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("--config", required=True, help="path to the JSON scenario config")
    run.add_argument("--output-dir", default=None, help="override the config's output_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.output_dir is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
        report = run_scenario(cfg)
    except (SchemaError, UnsupportedRouteForInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (QDiffusionError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 5
    if not report.checks["all_passed"]:
        for line in report.checks["failures"]:
            print(f"tolerance failure: {line}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
