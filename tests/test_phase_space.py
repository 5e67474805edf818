import math

import numpy as np
import pytest

from qdiffusion.channel import coherent_output
from qdiffusion.errors import (
    NotDecayed,
    QuadratureNotConverged,
    StencilOutOfRange,
    TruncationLoss,
    ZeroTime,
)
from qdiffusion.fock import (
    StateSpec,
    coherent_column_matrix,
    density_from_vector,
    state_metrics,
    state_vector,
    trace_distance,
)
from qdiffusion.oracle import ComplexGrid, quadrature_2d
from qdiffusion.phase_space import (
    PFunctionAnalytic,
    coherent_derivative_identity_residual,
    diffusion_pde_residual,
    diffusion_pde_residual_analytic,
    husimi_cross_element,
    p_coherent_evolved,
    p_from_rho_mehta,
    rho_from_p,
)

from helpers import einsum_mehta


def _projector(spec, dim):
    return density_from_vector(state_vector(spec, dim))


def test_p_coherent_evolved_values():
    assert p_coherent_evolved(1.0, 1.0, 0.5) == pytest.approx(2.0, abs=1e-14)
    # |z - alpha|^2 = tau puts the exponent at -1
    alpha = 1.0 + math.sqrt(0.5)
    assert p_coherent_evolved(alpha, 1.0, 0.5) == pytest.approx(2.0 / math.e, rel=1e-12)
    with pytest.raises(ZeroTime):
        p_coherent_evolved(0.0, 0.0, 0.0)


def test_p_coherent_evolved_on_node_array():
    z, tau = 0.7 - 0.4j, 0.35
    nodes = ComplexGrid(3.0, 16).nodes_weights()[0].reshape(16, 16)
    values = p_coherent_evolved(nodes, z, tau)
    assert values.shape == nodes.shape
    for alpha, value in zip(nodes.ravel(), values.ravel()):
        expected = math.exp(-abs(z - alpha) ** 2 / tau) / tau
        assert value == pytest.approx(expected, rel=1e-13)


def test_p_coherent_evolved_normalized():
    res = quadrature_2d(
        lambda a: np.exp(-np.abs(1.0 - a) ** 2 / 0.5) / 0.5, ComplexGrid(7.0, 64)
    )
    assert abs(res.value - 1.0) < 1e-8


def test_p_function_gaussian_normalization():
    p = PFunctionAnalytic.gaussian(1.0, 0.7)
    res = quadrature_2d(p, ComplexGrid(8.0, 64))
    assert abs(res.value - 1.0) < 1e-8
    with pytest.raises(ValueError):
        PFunctionAnalytic.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        PFunctionAnalytic(kind="lorentzian")
    with pytest.raises(ValueError):
        PFunctionAnalytic.delta(1.0)(np.array([0.0j]))


def test_rho_from_p_delta():
    rho = rho_from_p(PFunctionAnalytic.delta(1.0), 32, ComplexGrid(6.0, 32))
    assert state_metrics(rho).purity == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(
        rho.entries, _projector(StateSpec.coherent(1.0), 32).entries, atol=1e-14
    )


def test_rho_from_p_gaussian_matches_coherent_output():
    # the antinormal form of the evolved coherent state: Gaussian P with
    # center z and variance tau reassembles the closed-form output
    dim = 48
    for z, tau in [(0.0, 0.25), (1.0, 0.25), (0.0, 0.5), (1.0, 0.5)]:
        rho = rho_from_p(
            PFunctionAnalytic.gaussian(z, tau), dim, ComplexGrid(6.0, 96),
            check_convergence=False,
        )
        assert trace_distance(rho, coherent_output(z, tau, dim)) < 1e-6


def test_rho_from_p_thermal_moments():
    rho = rho_from_p(
        PFunctionAnalytic.gaussian(0.0, 0.5), 40, ComplexGrid(6.5, 64),
        check_convergence=False,
    )
    m = state_metrics(rho)
    assert abs(m.mean_photon - 0.5) < 1e-6
    assert abs(m.trace - 1.0) < 1e-7


def test_rho_from_p_convergence_guard():
    with pytest.raises(QuadratureNotConverged):
        rho_from_p(
            PFunctionAnalytic.gaussian(0.5, 0.0009), 24,
            ComplexGrid(1.0, 16, rule="midpoint"),
        )


def test_husimi_cross_element_vacuum():
    rho = _projector(StateSpec.number(0), 32)
    for beta in (0.4, 1.1j, 0.8 - 0.6j):
        assert husimi_cross_element(rho, beta) == pytest.approx(
            math.exp(-abs(beta) ** 2), rel=1e-12
        )


@pytest.mark.parametrize("l", [1, 2, 3])
def test_husimi_cross_element_number_states(l):
    rho = _projector(StateSpec.number(l), 64)
    beta = 0.7 + 0.4j
    expected = (-1) ** l * abs(beta) ** (2 * l) / math.factorial(l) * math.exp(-abs(beta) ** 2)
    assert husimi_cross_element(rho, beta).real == pytest.approx(expected, rel=1e-10)
    assert abs(husimi_cross_element(rho, beta).imag) < 1e-14


def test_husimi_cross_element_squeezed():
    lam = 0.5
    rho = _projector(StateSpec.squeezed_vacuum(lam), 64)
    for beta in (0.3, 1.0j, 1.2 + 0.8j, 1.5):
        got = husimi_cross_element(rho, beta)
        expected = (
            (1 / math.cosh(lam))
            * np.exp((np.conj(beta) ** 2 + beta**2) * math.tanh(lam) / 2 - abs(beta) ** 2)
        )
        assert abs(got - expected) < 1e-9


def test_husimi_cross_element_truncation_guard():
    rho = _projector(StateSpec.number(0), 8)
    with pytest.raises(TruncationLoss):
        husimi_cross_element(rho, 4.0)


def test_mehta_inversion_of_evolved_coherent():
    dim = 80
    grid = ComplexGrid(6.5, 64)
    rho = coherent_output(1.0, 0.5, dim)
    got = p_from_rho_mehta(rho, 1.0, grid)
    assert abs(got - 2.0) < 1e-5
    for alpha in (0.5 + 0.5j, 1.5, -0.3 + 1.0j):
        expected = p_coherent_evolved(alpha, 1.0, 0.5)
        assert abs(p_from_rho_mehta(rho, alpha, grid) - expected) < 1e-5


def test_mehta_left_columns_are_signed_conjugates():
    # conj(u_n(-b)) = (-1)^n conj(u_n(b)) holds bit for bit: negation and
    # conjugation only flip signs, which round-to-nearest preserves
    rng = np.random.default_rng(5)
    betas = rng.normal(scale=3.0, size=200) + 1j * rng.normal(scale=3.0, size=200)
    u = coherent_column_matrix(betas, 80, normalized=False)
    signed = np.conjugate(u) * ((-1.0) ** np.arange(80))[:, None]
    np.testing.assert_array_equal(signed, coherent_column_matrix(-betas.conj(), 80, normalized=False))


@pytest.mark.parametrize("offset", [0.0, 0.3, -0.3, 0.3j, -0.3j, 0.6 + 0.6j])
def test_mehta_matches_einsum_reference(offset):
    z, s, dim = np.exp(0.7j), 0.5, 80
    grid = ComplexGrid(6.0, 64)
    rho = coherent_output(z, s, dim)
    got = p_from_rho_mehta(rho, z + offset, grid)
    ref = einsum_mehta(rho.entries, z + offset, grid)
    assert abs(got - ref) <= 1e-7 * abs(ref)


def test_mehta_inversion_of_thermal():
    dim = 80
    rho = coherent_output(0.0, 0.5, dim)  # thermal, nbar = 0.5
    got = p_from_rho_mehta(rho, 0.0, ComplexGrid(6.5, 64))
    assert abs(got - 2.0) < 1e-5


def test_mehta_rejects_number_state():
    rho = _projector(StateSpec.number(1), 80)
    with pytest.raises(NotDecayed):
        p_from_rho_mehta(rho, 0.0, ComplexGrid(6.5, 64))


def test_mehta_truncation_guard():
    rho = coherent_output(0.0, 0.5, 24)
    with pytest.raises(TruncationLoss):
        p_from_rho_mehta(rho, 0.0, ComplexGrid(6.5, 64))


def test_inversion_roundtrip_on_gaussian_p():
    # p_from_rho_mehta after rho_from_p is the identity on Gaussian P-functions
    dim = 56
    center, variance = 1.0, 1.5
    rho = rho_from_p(
        PFunctionAnalytic.gaussian(center, variance), dim, ComplexGrid(7.0, 96),
        check_convergence=False,
    )
    grid = ComplexGrid(5.0, 64)
    for alpha in (0.0, 1.0, 0.5 - 0.8j, 1.5 + 1.0j, -2.0, 2.0):
        expected = math.exp(-abs(center - alpha) ** 2 / variance) / variance
        assert abs(p_from_rho_mehta(rho, alpha, grid) - expected) < 1e-5


def test_pde_residual_magnitude_and_order():
    grid = ComplexGrid(3.0, 41, rule="midpoint")
    r_coarse = diffusion_pde_residual(0.0, [0.5], grid, 2e-3)
    r_fine = diffusion_pde_residual(0.0, [0.5], grid, 1e-3)
    assert r_fine < 1e-5
    assert 3.0 < r_coarse / r_fine < 5.0  # second-order spatial error
    assert diffusion_pde_residual(1.0, [0.25, 0.5], grid, 1e-3) < 1e-4


def test_pde_residual_guards():
    grid = ComplexGrid(2.0, 17, rule="midpoint")
    with pytest.raises(StencilOutOfRange):
        diffusion_pde_residual(0.0, [0.001], grid, 1e-3)
    with pytest.raises(ValueError):
        diffusion_pde_residual(0.0, [0.5], grid, 0.5)


def test_pde_residual_analytic_forms_coincide():
    grid = ComplexGrid(3.0, 33, rule="midpoint")
    assert diffusion_pde_residual_analytic(1.0, 0.5, grid) < 1e-12
    assert diffusion_pde_residual_analytic(0.0, 0.25, grid) < 1e-12
    with pytest.raises(ZeroTime):
        diffusion_pde_residual_analytic(0.0, 0.0, grid)


def test_derivative_identity_raising_lowering():
    for alpha in (0.0, 0.7 + 0.3j, -1.2 + 0.9j):
        assert coherent_derivative_identity_residual(alpha, 16, 1e-4, "raising") < 1e-7
        assert coherent_derivative_identity_residual(alpha, 16, 1e-4, "lowering") < 1e-7


def test_derivative_identity_combined():
    rng = np.random.default_rng(5)
    for _ in range(5):
        alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(alpha) > 1.5:
            alpha *= 1.5 / abs(alpha)
        assert coherent_derivative_identity_residual(alpha, 16, 1e-4, "combined") < 1e-6


def test_derivative_identity_guards():
    with pytest.raises(ValueError):
        coherent_derivative_identity_residual(0.0, 16, 1e-4, "sideways")
    with pytest.raises(ValueError):
        coherent_derivative_identity_residual(0.0, 16, 0.1, "raising")
