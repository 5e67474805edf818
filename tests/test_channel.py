import math

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
    kraus_operator,
    number_output,
    resolve_squeezed_sign,
    squeezed_output,
)
from qdiffusion.errors import (
    CutoffTooSmall,
    DimensionMismatch,
    NumberExceedsCutoff,
    QuadratureNotConverged,
    SignResolutionFailed,
    TruncationLoss,
    UnsupportedInput,
    ZeroTimeNontrivialIndex,
)
from qdiffusion.fock import (
    StateSpec,
    annihilation_matrix,
    density_from_vector,
    state_metrics,
    state_vector,
    trace_distance,
)
from qdiffusion.oracle import ComplexGrid, integrate_master_equation
from qdiffusion.phase_space import PFunctionAnalytic

from helpers import dense_kraus, dense_ladder


def _projector(spec, dim):
    return density_from_vector(state_vector(spec, dim))


def test_kraus_operator_m0n0():
    tau, dim = 0.7, 8
    op = kraus_operator(0, 0, tau, dim)
    expected = math.sqrt(1 / (tau + 1)) * np.diag((1 / (1 + tau)) ** np.arange(dim))
    np.testing.assert_allclose(op, expected, atol=1e-15)
    assert np.all(np.diag(op).real > 0)


def test_kraus_operator_explicit_example():
    # tau=1, m=1, n=0: prefactor sqrt(1/4) = 1/2, matrix (1/2) a' diag(2^-n)
    op = kraus_operator(1, 0, 1.0, 4)
    a = annihilation_matrix(4)
    expected = 0.5 * a.conj().T @ np.diag(0.5 ** np.arange(4)).astype(complex)
    np.testing.assert_array_equal(op, expected)


def test_kraus_operator_kills_vacuum_for_positive_n():
    vac = np.zeros(8, complex)
    vac[0] = 1.0
    for m, n in [(0, 1), (2, 3), (1, 1)]:
        assert not (kraus_operator(m, n, 0.5, 8) @ vac).any()


def test_kraus_zero_time():
    np.testing.assert_array_equal(kraus_operator(0, 0, 0.0, 5), np.eye(5))
    with pytest.raises(ZeroTimeNontrivialIndex):
        kraus_operator(1, 0, 0.0, 5)
    ks = build_kraus_set(0.0, 10, 5)
    assert ks.max_index == 0
    np.testing.assert_array_equal(ks.operators[0, 0], np.eye(5))
    assert completeness_residual(ks) == 0.0


def test_build_kraus_set_consistency_and_guards():
    tau, max_index, dim = 0.5, 3, 10
    ks = build_kraus_set(tau, max_index, dim)
    dense = {
        (m, n): dense_kraus(m, n, tau, dim)
        for m in range(max_index + 1)
        for n in range(max_index + 1)
    }
    # every band with m >= n ends in row dim-1, so the cutoff edge is covered
    for (m, n), ref in dense.items():
        np.testing.assert_allclose(ks.operators[m, n], ref, rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(kraus_operator(m, n, tau, dim), ref, rtol=1e-13, atol=1e-16)
    gram = sum(ref.conj().T @ ref for ref in dense.values())
    np.testing.assert_allclose(ks.gram, gram, rtol=1e-13, atol=1e-16)
    # bands that end at the cutoff or lie wholly above it
    for m, n in [(8, 1), (1, 8), (9, 0), (0, 12), (11, 11)]:
        np.testing.assert_allclose(
            kraus_operator(m, n, 1.3, dim), dense_kraus(m, n, 1.3, dim), rtol=1e-13, atol=1e-16
        )
    with pytest.raises(CutoffTooSmall):
        build_kraus_set(0.5, 10, 10)
    with pytest.raises(ValueError):
        build_kraus_set(0.5, 0, 10)


def test_completeness_ground_level_is_exactly_geometric():
    # the level-0 deficiency of sum M'M is (tau/(tau+1))^(M+1) exactly
    for tau, M in [(0.25, 12), (0.5, 10), (1.0, 8)]:
        ks = build_kraus_set(tau, M, 32)
        deficiency = 1.0 - ks.gram[0, 0].real
        assert deficiency == pytest.approx((tau / (tau + 1)) ** (M + 1), rel=1e-10)


def test_completeness_monotone_in_max_index():
    dims = 32
    residuals = [
        completeness_residual(build_kraus_set(0.25, m, dims), block=dims - 20)
        for m in (4, 8, 12, 16)
    ]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine < coarse + 1e-12
    # recorded value at small M strictly larger (tau=1 case from the contract)
    r4 = completeness_residual(build_kraus_set(1.0, 4, 32))
    r12 = completeness_residual(build_kraus_set(1.0, 12, 32))
    assert r4 > r12


def test_kraus_evolve_identity_and_guards():
    dim = 16
    rho0 = _projector(StateSpec.coherent(0.7), dim)
    ks0 = build_kraus_set(0.0, 4, dim)
    np.testing.assert_array_equal(kraus_evolve(rho0, ks0).entries, rho0.entries)
    with pytest.raises(DimensionMismatch):
        kraus_evolve(_projector(StateSpec.coherent(0.7), 12), build_kraus_set(0.5, 4, 16))


def test_kraus_vacuum_heats_by_tau():
    dim = 48
    out = kraus_evolve(_projector(StateSpec.number(0), dim), build_kraus_set(0.5, 16, dim))
    m = state_metrics(out)
    assert abs(m.mean_photon - 0.5) < 1e-6
    assert abs(m.trace - 1.0) < 1e-8


def test_kraus_matches_rk4_on_coherent_input():
    dim = 48
    rho0 = _projector(StateSpec.coherent(1.0), dim)
    kr = kraus_evolve(rho0, build_kraus_set(0.5, 20, dim))
    rk = integrate_master_equation(rho0, 1.0, 0.5, 0.002)
    assert trace_distance(kr, rk) < 1e-6


def test_coherent_output_zero_amplitude_is_thermal():
    tau, dim = 0.5, 32
    out = coherent_output(0.0, tau, dim)
    expected = np.diag((tau / (tau + 1)) ** np.arange(dim)) / (tau + 1)
    np.testing.assert_allclose(out.entries, expected, atol=1e-14)
    assert abs(state_metrics(out).mean_photon - tau) < 1e-10


def test_coherent_output_trace_and_moments():
    out = coherent_output(1.0, 0.5, 48)
    m = state_metrics(out)
    assert abs(m.trace - 1.0) < 1e-8
    assert abs(m.mean_photon - 1.5) < 1e-6
    assert trace_distance(out, kraus_evolve(_projector(StateSpec.coherent(1.0), 48),
                                            build_kraus_set(0.5, 20, 48))) < 1e-7


def test_coherent_output_zero_time_and_truncation():
    out = coherent_output(0.6, 0.0, 24)
    np.testing.assert_array_equal(out.entries, _projector(StateSpec.coherent(0.6), 24).entries)
    with pytest.raises(TruncationLoss):
        coherent_output(2.0, 1.0, 12)


def test_number_output_reduces_to_thermal_at_l0():
    np.testing.assert_allclose(
        number_output(0, 0.5, 32).entries,
        coherent_output(0.0, 0.5, 32).entries,
        atol=1e-14,
    )


def test_number_output_mean_photon_law():
    out = number_output(2, 0.5, 64)
    assert abs(state_metrics(out).mean_photon - 2.5) < 1e-6
    assert abs(state_metrics(out).trace - 1.0) < 1e-8
    assert np.max(np.abs(out.entries - np.diag(np.diag(out.entries)))) == 0.0


def test_number_output_matches_kraus():
    dim = 48
    out = number_output(1, 0.25, dim)
    kr = kraus_evolve(_projector(StateSpec.number(1), dim), build_kraus_set(0.25, 16, dim))
    assert trace_distance(out, kr) < 1e-7


def test_number_routes_match_literal_ladder_sums():
    # the closed-form sum over a'^k thermal a^k with dense matrix powers; the
    # cross-element route reaches the same diagonal state by its own formula
    dim, tau = 16, 0.25
    a = dense_ladder(dim)
    thermal = np.diag((tau / (tau + 1)) ** np.arange(dim))
    for l in (0, 1, 3, 7):
        literal = sum(
            math.comb(l, k) / math.factorial(k) / (tau * (tau + 1)) ** k
            * np.linalg.matrix_power(a.T, k) @ thermal @ np.linalg.matrix_power(a, k)
            for k in range(l + 1)
        ) * tau**l / (tau + 1) ** (l + 1)
        spec = StateSpec.number(l)
        cross = evolve_via_husimi_integral(_projector(spec, dim), spec, tau, dim)
        for out in (number_output(l, tau, dim), cross):
            np.testing.assert_allclose(out.entries, literal, rtol=1e-12, atol=1e-16)


def test_number_output_guards():
    with pytest.raises(NumberExceedsCutoff):
        number_output(8, 0.5, 16)
    out = number_output(3, 0.0, 16)
    assert out.entries[3, 3] == 1.0


def test_squeezed_output_reduces_to_thermal_at_zero_squeeze():
    np.testing.assert_allclose(
        squeezed_output(0.0, 0.5, 32).entries,
        coherent_output(0.0, 0.5, 32).entries,
        atol=1e-13,
    )


@pytest.mark.parametrize("lam,tau", [(0.25, 0.25), (0.5, 0.5), (1.0, 0.25)])
def test_squeezed_output_trace_and_sign(lam, tau):
    dim = 64
    assert resolve_squeezed_sign(lam, tau, dim) == 1
    out = squeezed_output(lam, tau, dim)
    assert abs(state_metrics(out).trace - 1.0) < 1e-6


def test_squeezed_output_matches_rk4():
    dim = 64
    rho0 = _projector(StateSpec.squeezed_vacuum(0.5), dim)
    out = squeezed_output(0.5, 0.5, dim)
    rk = integrate_master_equation(rho0, 1.0, 0.5, 0.002)
    assert trace_distance(out, rk) < 1e-6
    assert abs(
        state_metrics(out).mean_photon - (math.sinh(0.5) ** 2 + 0.5)
    ) < 1e-6


def test_squeezed_output_guards():
    with pytest.raises(SignResolutionFailed):
        squeezed_output(2.0, 0.5, 8)
    with pytest.raises(ValueError):
        squeezed_output(2.5, 0.5, 64)


def test_p_integral_delta_equals_closed_form():
    dim = 40
    out = evolve_via_p_integral(
        PFunctionAnalytic.delta(1.0), 0.5, ComplexGrid(7.0, 64), dim
    )
    assert np.max(np.abs(out.entries - coherent_output(1.0, 0.5, dim).entries)) < 1e-12


def test_p_integral_thermal_input():
    # a thermal input (Gaussian P, nbar=0.5) gains tau in mean photon number
    dim = 40
    out = evolve_via_p_integral(
        PFunctionAnalytic.gaussian(0.0, 0.5), 0.5, ComplexGrid(7.0, 48), dim
    )
    m = state_metrics(out)
    assert abs(m.mean_photon - 1.0) < 1e-5
    kr = kraus_evolve(coherent_output(0.0, 0.5, dim), build_kraus_set(0.5, 20, dim))
    assert trace_distance(out, kr) < 1e-5


def test_p_integral_grid_sampled_delta_approximation():
    dim = 40
    sigma = 0.03
    out = evolve_via_p_integral(
        PFunctionAnalytic.gaussian(0.5, sigma**2),
        0.5,
        ComplexGrid(1.0, 120, rule="midpoint"),
        dim,
        check_convergence=False,
    )
    assert trace_distance(out, coherent_output(0.5, 0.5, dim)) < 1e-3


def test_p_integral_accepts_callable():
    dim = 32
    def p(alpha):
        return np.exp(-np.abs(alpha) ** 2 / 0.5) / 0.5
    out = evolve_via_p_integral(p, 0.25, ComplexGrid(6.0, 48), dim, check_convergence=False)
    assert abs(state_metrics(out).mean_photon - 0.75) < 1e-5


def test_p_integral_convergence_guard():
    with pytest.raises(QuadratureNotConverged):
        evolve_via_p_integral(
            PFunctionAnalytic.gaussian(0.5, 0.0009),
            0.5,
            ComplexGrid(1.0, 16, rule="midpoint"),
            24,
        )


def test_p_integral_zero_time_reproduces_input():
    dim = 32
    out = evolve_via_p_integral(
        PFunctionAnalytic.delta(0.8), 0.0, ComplexGrid(6.0, 32), dim
    )
    assert np.max(np.abs(out.entries - _projector(StateSpec.coherent(0.8), dim).entries)) < 1e-12


@pytest.mark.parametrize(
    "spec,tau",
    [
        (StateSpec.number(1), 0.5),
        (StateSpec.number(3), 0.25),
        (StateSpec.coherent(0.0), 0.5),
        (StateSpec.coherent(1.0), 0.25),
    ],
)
def test_husimi_route_matches_closed_forms(spec, tau):
    dim = 48
    rho0 = _projector(spec, dim)
    out = evolve_via_husimi_integral(rho0, spec, tau, dim)
    if spec.kind == "number":
        ref = number_output(spec.l, tau, dim)
    else:
        ref = coherent_output(spec.z, tau, dim)
    assert np.max(np.abs(out.entries - ref.entries)) < 1e-9


def test_husimi_route_squeezed_matches_closed_form():
    dim = 64
    spec = StateSpec.squeezed_vacuum(0.3)
    out = evolve_via_husimi_integral(_projector(spec, dim), spec, 0.25, dim)
    assert np.max(np.abs(out.entries - squeezed_output(0.3, 0.25, dim).entries)) < 1e-8


def test_husimi_route_guards():
    dim = 32
    rho_wrong = _projector(StateSpec.coherent(0.5), dim)
    with pytest.raises(UnsupportedInput):
        evolve_via_husimi_integral(rho_wrong, StateSpec.number(1), 0.5, dim)
    rho0 = _projector(StateSpec.number(1), dim)
    out = evolve_via_husimi_integral(rho0, StateSpec.number(1), 0.0, dim)
    np.testing.assert_array_equal(out.entries, rho0.entries)


def test_mean_photon_law_all_inputs():
    dim = 64
    tau = 0.5
    ks = build_kraus_set(tau, 24, dim)
    for spec in (StateSpec.coherent(1.0), StateSpec.number(2), StateSpec.squeezed_vacuum(0.5)):
        rho0 = _projector(spec, dim)
        before = state_metrics(rho0).mean_photon
        after = state_metrics(kraus_evolve(rho0, ks)).mean_photon
        assert abs(after - before - tau) < 1e-6


def test_route_agreement_at_large_tau():
    dim = 64
    rho0 = _projector(StateSpec.coherent(1.0), dim)
    closed = coherent_output(1.0, 1.0, dim)
    rk = integrate_master_equation(rho0, 1.0, 1.0, 0.002)
    assert trace_distance(closed, rk) < 1e-6
    closed_small = coherent_output(1.0, 0.1, 48)
    rk_small = integrate_master_equation(_projector(StateSpec.coherent(1.0), 48), 1.0, 0.1, 0.002)
    assert trace_distance(closed_small, rk_small) < 1e-6


def test_semigroup_property():
    dim = 48
    rho0 = _projector(StateSpec.coherent(1.0), dim)
    ks_quarter = build_kraus_set(0.25, 20, dim)
    ks_half = build_kraus_set(0.5, 24, dim)
    twice = kraus_evolve(kraus_evolve(rho0, ks_quarter), ks_quarter)
    direct = kraus_evolve(rho0, ks_half)
    assert trace_distance(twice, direct) < 1e-6


def test_purity_strictly_decreasing_in_tau():
    dim = 48
    purities = [
        state_metrics(coherent_output(1.0, tau, dim)).purity
        for tau in (0.1, 0.25, 0.5, 1.0)
    ]
    assert all(b < a for a, b in zip(purities, purities[1:]))


def test_outputs_hermitian_and_psd():
    dim = 48
    outputs = [
        coherent_output(1.0, 0.5, dim),
        number_output(2, 0.5, dim),
        squeezed_output(0.5, 0.25, 64),
        kraus_evolve(_projector(StateSpec.coherent(1.0), dim), build_kraus_set(0.5, 20, dim)),
    ]
    for out in outputs:
        m = state_metrics(out)
        assert m.hermiticity_residual < 1e-12
        assert m.min_eigenvalue > -1e-9 * out.dim


def test_default_kraus_rule():
    assert default_kraus_max_index(0.0, 32) == 8
    assert default_kraus_max_index(0.25, 32) == 20
    assert default_kraus_max_index(1.0, 64) == 48
