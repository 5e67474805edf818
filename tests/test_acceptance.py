"""Acceptance suite: one test per acceptance criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1's numeric bound is asserted exactly as stated even
though the measured interior-block residual is ~1.9e-3 (see "Known
numerical limits" in the README): the geometric (tau/(tau+1))^(M+1) rate it
was derived from only describes the lowest Fock level, so that single
assert fails honestly while the monotonicity half of the criterion passes.
"""

import time

import numpy as np
import pytest

from qdiffusion.channel import (
    build_kraus_set,
    coherent_output,
    completeness_residual,
    default_kraus_max_index,
    evolve_via_husimi_integral,
    evolve_via_p_integral,
    kraus_evolve,
    number_output,
    resolve_squeezed_sign,
    squeezed_output,
)
from qdiffusion.fock import (
    StateSpec,
    density_from_vector,
    state_metrics,
    state_vector,
    trace_distance,
)
from qdiffusion.oracle import ComplexGrid, integrate_master_equation, quadrature_2d
from qdiffusion.phase_space import (
    PFunctionAnalytic,
    coherent_derivative_identity_residual,
    diffusion_pde_residual,
    diffusion_pde_residual_analytic,
)
from qdiffusion.special import (
    gaussian_moment_integral,
    gaussian_quadratic_integral,
    laguerre,
    laguerre_hermite_identity_residual,
    quadratic_form_negative_definite,
)


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")


def _projector(spec, dim):
    return density_from_vector(state_vector(spec, dim))


ROUTE_DIM = 64
ROUTE_TAUS = (0.25, 0.5)
ROUTE_INPUTS = (
    StateSpec.coherent(1.0),
    StateSpec.number(0),
    StateSpec.number(1),
    StateSpec.number(2),
    StateSpec.number(3),
    StateSpec.squeezed_vacuum(0.5),
)


def _closed_form(spec, tau, dim):
    if spec.kind == "coherent":
        return coherent_output(spec.z, tau, dim)
    if spec.kind == "number":
        return number_output(spec.l, tau, dim)
    return squeezed_output(spec.squeeze, tau, dim)


@pytest.fixture(scope="module")
def route_states():
    """Every (input, tau) evolved by all four non-quadrature routes."""
    t0 = time.perf_counter()
    kraus_sets = {tau: build_kraus_set(tau, 24, ROUTE_DIM) for tau in ROUTE_TAUS}
    states = {}
    for spec in ROUTE_INPUTS:
        rho0 = _projector(spec, ROUTE_DIM)
        for tau in ROUTE_TAUS:
            states[(spec, tau)] = {
                "kraus": kraus_evolve(rho0, kraus_sets[tau]),
                "closed_form": _closed_form(spec, tau, ROUTE_DIM),
                "husimi_integral": evolve_via_husimi_integral(rho0, spec, tau, ROUTE_DIM),
                "ode_oracle": integrate_master_equation(rho0, 1.0, tau, 0.002),
            }
    return {"states": states, "elapsed": time.perf_counter() - t0}


def test_criterion_01_kraus_completeness_monotone():
    t0 = time.perf_counter()
    residuals = [
        completeness_residual(build_kraus_set(0.25, m, 32)) for m in (4, 8, 12)
    ]
    elapsed = time.perf_counter() - t0
    monotone = all(b < a for a, b in zip(residuals, residuals[1:]))
    ok = monotone and elapsed < 5.0
    _report(1, ok, f"completeness residual monotone in M {['%.3e' % r for r in residuals]}, "
                   f"{elapsed:.2f}s < 5s")
    assert monotone
    assert elapsed < 5.0


def test_criterion_01_kraus_completeness_bound():
    # Stated bound: tau=0.25, dim=32, M=12, interior-block residual <= 1e-8.
    # The bound holds only at the lowest Fock level, where the deficiency is
    # exactly (tau/(tau+1))^(M+1) = 8.2e-10; on the contractual interior
    # block (indices < dim - M) the combinatorial tail dominates and the
    # residual is ~1.9e-3.  Asserted as stated; expected to fail.
    ks = build_kraus_set(0.25, 12, 32)
    residual = completeness_residual(ks)
    level0 = 1.0 - ks.gram[0]
    ok = residual <= 1e-8
    _report(1, ok, f"interior-block residual {residual:.3e} vs stated 1e-8 "
                   f"(level-0 deficiency {level0:.3e} matches the geometric rate)")
    assert residual <= 1e-8, (
        f"measured interior-block residual {residual:.3e} exceeds the stated 1e-8; "
        f"only the level-0 deficiency ({level0:.3e}) follows the geometric rate"
    )


def test_criterion_02_trace_conservation(route_states):
    t0 = time.perf_counter()
    worst = 0.0
    for (spec, tau), by_route in route_states["states"].items():
        for route, state in by_route.items():
            worst = max(worst, abs(state_metrics(state).trace - 1.0))
    assert worst <= 1e-6

    # quadrature routes get the looser 1e-5 budget
    quad_worst = 0.0
    delta_out = evolve_via_p_integral(
        PFunctionAnalytic.delta(1.0), 0.5, ComplexGrid(7.0, 48), 48,
        check_convergence=False,
    )
    quad_worst = max(quad_worst, abs(state_metrics(delta_out).trace - 1.0))
    gauss_out = evolve_via_p_integral(
        PFunctionAnalytic.gaussian(0.0, 0.5), 0.5, ComplexGrid(7.0, 48), 48,
        check_convergence=False,
    )
    quad_worst = max(quad_worst, abs(state_metrics(gauss_out).trace - 1.0))
    elapsed = time.perf_counter() - t0 + route_states["elapsed"]
    ok = worst <= 1e-6 and quad_worst <= 1e-5 and elapsed < 30.0
    _report(2, ok, f"max |trace-1| = {worst:.2e} (exact routes), "
                   f"{quad_worst:.2e} (quadrature), {elapsed:.1f}s < 30s")
    assert quad_worst <= 1e-5
    assert elapsed < 30.0


def test_criterion_03_mean_photon_law():
    dim = 64
    kraus_sets = {
        tau: build_kraus_set(tau, default_kraus_max_index(tau, dim), dim)
        for tau in (0.1, 0.5, 1.0)
    }
    worst = 0.0
    for l in range(4):
        rho0 = _projector(StateSpec.number(l), dim)
        for tau in (0.1, 0.5, 1.0):
            targets = (
                number_output(l, tau, dim),
                kraus_evolve(rho0, kraus_sets[tau]),
                integrate_master_equation(rho0, 1.0, tau, 0.002),
            )
            for state in targets:
                worst = max(worst, abs(state_metrics(state).mean_photon - (l + tau)))
    ok = worst <= 1e-6
    _report(3, ok, f"max |mean_photon - (l + tau)| = {worst:.2e} over l<=3, tau in (0.1,0.5,1.0)")
    assert worst <= 1e-6


def test_criterion_04_route_agreement(route_states):
    routes = ("kraus", "closed_form", "husimi_integral", "ode_oracle")
    worst = 0.0
    for (spec, tau), by_route in route_states["states"].items():
        for i, ra in enumerate(routes):
            for rb in routes[i + 1:]:
                dist = trace_distance(by_route[ra], by_route[rb])
                worst = max(worst, dist)
    elapsed = route_states["elapsed"]
    ok = worst <= 1e-6 and elapsed < 120.0
    _report(4, ok, f"max pairwise trace distance = {worst:.2e} "
                   f"(all four routes are quadrature-free, so the 1e-6 bound applies), "
                   f"{elapsed:.1f}s < 2min")
    assert worst <= 1e-6
    assert elapsed < 120.0


def test_criterion_05_classical_correspondence():
    grid = ComplexGrid(3.0, 41, rule="midpoint")
    fine = diffusion_pde_residual(0.0, [0.5], grid, 1e-3)
    coarse = diffusion_pde_residual(0.0, [0.5], grid, 2e-3)
    analytic = diffusion_pde_residual_analytic(0.0, 0.5, grid)
    ratio = coarse / fine
    ok = fine <= 1e-5 and 3.0 < ratio < 5.0 and analytic <= 1e-12
    _report(5, ok, f"FD residual {fine:.2e} <= 1e-5 at h=1e-3, decay ratio {ratio:.2f} ~ 4, "
                   f"analytic residual {analytic:.1e} <= 1e-12")
    assert fine <= 1e-5
    assert 3.0 < ratio < 5.0
    assert analytic <= 1e-12


def test_criterion_06_appendix_identities():
    rng = np.random.default_rng(17)
    worst = {"raising": 0.0, "lowering": 0.0, "combined": 0.0}
    alphas = [0.0, 1.5, 0.75 + 0.75j]
    for _ in range(3):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1.5
        alphas.append(a if abs(a) <= 1.5 else a * 1.5 / abs(a))
    for alpha in alphas:
        for which in worst:
            worst[which] = max(
                worst[which],
                coherent_derivative_identity_residual(alpha, 16, 1e-4, which),
            )
    ok = all(v <= 1e-6 for v in worst.values())
    _report(6, ok, "derivative-identity residuals at dim=16: "
                   + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    for which, value in worst.items():
        assert value <= 1e-6, which


def test_criterion_07_gaussian_integral_formulas():
    rng = np.random.default_rng(2024)
    worst_moment = 0.0
    for _ in range(10):
        zeta = complex(-rng.uniform(1.0, 2.5), rng.uniform(-0.3, 0.3))
        xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        closed = gaussian_moment_integral(n, m, zeta, xi, eta)
        quad = quadrature_2d(
            lambda b: b**n * np.conj(b) ** m
            * np.exp(zeta * np.abs(b) ** 2 + xi * b + eta * np.conj(b)),
            ComplexGrid(7.5, 96),
            decay_tol=1e-10,
            estimate_refinement=False,
        ).value
        worst_moment = max(worst_moment, abs(closed - quad) / max(1.0, abs(closed)))

    worst_quadratic = 0.0
    count = 0
    while count < 10:
        zeta = complex(-rng.uniform(1.4, 2.5), rng.uniform(-0.2, 0.2))
        xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
        g = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
        if not quadratic_form_negative_definite(zeta + 0.7, f, g):
            continue  # keep a decay margin of 0.7 for the finite patch
        count += 1
        closed = gaussian_quadratic_integral(zeta, xi, eta, f, g)
        quad = quadrature_2d(
            lambda b: np.exp(
                zeta * np.abs(b) ** 2 + xi * b + eta * np.conj(b)
                + f * b**2 + g * np.conj(b) ** 2
            ),
            ComplexGrid(8.0, 96),
            decay_tol=1e-10,
            estimate_refinement=False,
        ).value
        worst_quadratic = max(worst_quadratic, abs(closed - quad) / max(1.0, abs(closed)))

    ok = worst_moment <= 1e-6 and worst_quadratic <= 1e-6
    _report(7, ok, f"worst relative misfit vs quadrature: moment {worst_moment:.2e}, "
                   f"quadratic {worst_quadratic:.2e} over 10 draws each")
    assert worst_moment <= 1e-6
    assert worst_quadratic <= 1e-6


def test_criterion_08_polynomial_identity():
    worst = 0.0
    pts = np.linspace(-2, 2, 5)
    for l in range(21):
        for xr in pts:
            for yr in pts:
                x = complex(xr, 0.5)
                y = complex(yr, -0.35)
                scale = max(1.0, abs(laguerre(l, x * y)))
                worst = max(worst, laguerre_hermite_identity_residual(l, x, y) / scale)
    ok = worst <= 1e-9
    _report(8, ok, f"worst relative Laguerre/Hermite identity residual = {worst:.2e} for l <= 20")
    assert worst <= 1e-9


def test_criterion_09_semigroup_property():
    dim = 48
    rho0 = _projector(StateSpec.coherent(1.0), dim)
    quarter = build_kraus_set(0.25, 20, dim)
    half = build_kraus_set(0.5, 24, dim)
    twice = kraus_evolve(kraus_evolve(rho0, quarter), quarter)
    direct = kraus_evolve(rho0, half)
    rk = integrate_master_equation(rho0, 1.0, 0.5, 0.002)
    d_compose = trace_distance(twice, direct)
    d_oracle = trace_distance(twice, rk)
    ok = d_compose <= 1e-6 and d_oracle <= 1e-6
    _report(9, ok, f"channel(0.25) twice vs channel(0.5): {d_compose:.2e}; vs RK4: {d_oracle:.2e}")
    assert d_compose <= 1e-6
    assert d_oracle <= 1e-6


def test_criterion_10_sign_resolution():
    dim = 64
    signs = {}
    for lam in (0.25, 0.5, 1.0):
        for tau in (0.25, 0.5):
            sign = resolve_squeezed_sign(lam, tau, dim)
            signs[(lam, tau)] = sign
            out = squeezed_output(lam, tau, dim)
            assert abs(state_metrics(out).trace - 1.0) <= 1e-3
            # the opposite sign must fail the unit-trace rule
            tr = state_metrics(out).trace
            assert abs(-tr - 1.0) > 1e-3
    consistent = len(set(signs.values())) == 1
    ok = consistent
    _report(10, ok, f"resolved sign {set(signs.values())} consistent across "
                    f"lambda x tau grid")
    assert consistent
