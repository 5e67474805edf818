import numpy as np
import pytest

from qdiffusion.channel import coherent_output
from qdiffusion.errors import NotDecayed, StepTooLarge, TruncationLoss
from qdiffusion.fock import (
    DensityMatrix,
    StateSpec,
    density_from_vector,
    state_metrics,
    state_vector,
    trace_distance,
)
from qdiffusion.oracle import (
    ComplexGrid,
    integrate_master_equation,
    lindblad_rhs,
    quadrature_2d,
)
from qdiffusion.special import gaussian_moment_integral

from helpers import dense_ladder, exact_truncated_evolution, trace_norm_distance


def test_rhs_vacuum_by_hand():
    # -kappa (a'a rho - a' rho a - a rho a' + rho a a') at rho = |0><0| is
    # -(|0><0| - |1><1|): only a' rho a and rho a a' survive
    rho = density_from_vector(state_vector(StateSpec.number(0), 3))
    rhs = lindblad_rhs(rho, 1.0).entries
    expected = np.zeros((3, 3), complex)
    expected[0, 0] = -1.0
    expected[1, 1] = 1.0
    np.testing.assert_allclose(rhs, expected, atol=1e-15)


def test_rhs_maximally_mixed_is_stationary():
    dim = 10
    rho = DensityMatrix(np.eye(dim, dtype=complex) / dim)
    rhs = lindblad_rhs(rho, 1.3).entries
    assert np.max(np.abs(rhs)) < 1e-15


def test_rhs_zero_kappa_and_trace():
    rho = density_from_vector(state_vector(StateSpec.coherent(0.8), 24))
    assert np.max(np.abs(lindblad_rhs(rho, 0.0).entries)) == 0.0
    rhs = lindblad_rhs(rho, 1.0).entries
    # the truncated generator is exactly traceless (cyclic cancellation),
    # so the interior trace equals minus the last diagonal entry
    assert abs(np.trace(rhs)) < 1e-14
    interior = np.trace(rhs[:-1, :-1])
    assert abs(interior + rhs[-1, -1]) < 1e-14


def test_rhs_matches_dense_ladder_form():
    # on a random non-Hermitian matrix, against the dense products of the
    # directly built truncated ladder
    dim, kappa = 12, 0.7
    rng = np.random.default_rng(3)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = dense_ladder(dim)
    ad = a.T
    h = 0.5 * (ad @ a + a @ ad)
    expected = kappa * (ad @ x @ a + a @ x @ ad - h @ x - x @ h)
    rhs = lindblad_rhs(DensityMatrix(x), kappa).entries
    np.testing.assert_allclose(rhs, expected, rtol=0, atol=1e-13)


def test_rk4_matches_exact_truncated_propagator():
    dim, tau = 70, 2.0
    rho0 = density_from_vector(state_vector(StateSpec.coherent(1.0), dim))
    out = integrate_master_equation(rho0, 1.0, tau, 0.002)
    exact = exact_truncated_evolution(rho0.entries, tau)
    assert trace_norm_distance(out.entries, exact) < 1e-12


def test_rk4_number_and_squeezed_match_exact_truncated_propagator():
    # the number state packs one real diagonal, the squeezed vacuum the real
    # parts of its even offsets; its mass near the top level needs the
    # finer step for 1e-12
    for spec, dim, tau, dt in (
        (StateSpec.number(3), 48, 2.0, 0.002),
        (StateSpec.squeezed_vacuum(1.0), 48, 0.5, 0.0005),
    ):
        rho0 = density_from_vector(state_vector(spec, dim))
        out = integrate_master_equation(rho0, 1.0, tau, dt)
        exact = exact_truncated_evolution(rho0.entries, tau)
        assert trace_norm_distance(out.entries, exact) < 1e-12


def test_rk4_matches_exact_propagator_on_every_offset_and_part():
    # a random non-Hermitian complex matrix, not phase covariant, fills the
    # real and the imaginary part of every offset; the geometric weights keep
    # the top level below the truncation limit
    dim, tau = 12, 0.2
    rng = np.random.default_rng(7)
    w = 0.3 ** np.arange(dim)
    x = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * np.outer(w, w)
    out = integrate_master_equation(DensityMatrix(x), 1.0, tau, 0.0005)
    exact = exact_truncated_evolution(x, tau)
    assert trace_norm_distance(out.entries, exact) < 1e-12


def test_rk4_keeps_empty_band_parts_exactly_zero():
    # the real squeezed vacuum holds no odd offset and no imaginary part
    dim = 48
    rho0 = density_from_vector(state_vector(StateSpec.squeezed_vacuum(1.0), dim))
    out = integrate_master_equation(rho0, 1.0, 0.25, 0.002).entries
    for d in range(1 - dim, dim):
        held, got = np.diagonal(rho0.entries, d), np.diagonal(out, d)
        for part in ("real", "imag"):
            if not getattr(held, part).any():
                assert not getattr(got, part).any()
    assert not out.imag.any() and not np.diagonal(out, 1).any()


def test_rk4_zero_input_returns_zeros():
    out = integrate_master_equation(DensityMatrix(np.zeros((8, 8), complex)), 1.0, 0.1, 0.005)
    np.testing.assert_array_equal(out.entries, np.zeros((8, 8)))


def test_rk4_output_is_exactly_hermitian_at_the_box_edge():
    # squeezed r=1 at dim 68 keeps ~1e-6 of its output mass near the top
    # level, where a one-sided edge rate used to break Hermiticity
    rho0 = density_from_vector(state_vector(StateSpec.squeezed_vacuum(1.0), 68))
    out = integrate_master_equation(rho0, 1.0, 0.5, 0.002)
    assert state_metrics(out).hermiticity_residual <= 1e-15


def test_integrate_zero_time_and_guards():
    rho0 = density_from_vector(state_vector(StateSpec.coherent(1.0), 16))
    out = integrate_master_equation(rho0, 1.0, 0.0, 0.01)
    np.testing.assert_array_equal(out.entries, rho0.entries)
    with pytest.raises(StepTooLarge):
        integrate_master_equation(rho0, 5.0, 0.5, 0.005)
    with pytest.raises(ValueError):
        integrate_master_equation(rho0, 1.0, 0.001, 0.01)  # dt > t_final
    with pytest.raises(ValueError):
        integrate_master_equation(rho0, -1.0, 0.5, 0.005)


def test_integrate_rejects_step_outside_rk4_stability():
    # dt 0.002 at dim 400 puts kappa*dt*4*dim at 3.2, outside RK4's stability
    # interval; two such steps would still return a plausible vacuum
    rho0 = density_from_vector(state_vector(StateSpec.number(0), 400))
    with pytest.raises(StepTooLarge):
        integrate_master_equation(rho0, 1.0, 0.004, 0.002)


def test_integrate_rejects_garbage_top_level():
    # NaN and a large negative top occupation are rejected, not only a large
    # positive one
    nan = DensityMatrix(np.full((8, 8), np.nan, dtype=complex))
    negative = np.zeros((8, 8), complex)
    negative[-1, -1] = -1.0
    for rho0 in (nan, DensityMatrix(negative)):
        with pytest.raises(TruncationLoss):
            integrate_master_equation(rho0, 1.0, 0.01, 0.005)


def test_integrate_vacuum_heating():
    rho0 = density_from_vector(state_vector(StateSpec.number(0), 48))
    out = integrate_master_equation(rho0, 1.0, 0.5, 0.005)
    m = state_metrics(out)
    assert abs(m.mean_photon - 0.5) < 1e-6
    assert abs(m.trace - 1.0) < 1e-8


def test_integrate_matches_closed_form():
    dim = 48
    rho0 = density_from_vector(state_vector(StateSpec.coherent(1.0), dim))
    out = integrate_master_equation(rho0, 1.0, 0.5, 0.002)
    assert trace_distance(out, coherent_output(1.0, 0.5, dim)) < 1e-6


def test_integrate_truncation_loss():
    rho0 = density_from_vector(state_vector(StateSpec.coherent(2.0), 12))
    with pytest.raises(TruncationLoss):
        integrate_master_equation(rho0, 1.0, 1.0, 0.005)


def test_rk4_fourth_order_scaling():
    dim = 32
    rho0 = density_from_vector(state_vector(StateSpec.coherent(1.0), dim))
    ref = coherent_output(1.0, 0.25, dim)
    errs = [
        trace_distance(integrate_master_equation(rho0, 1.0, 0.25, dt), ref)
        for dt in (4e-3, 2e-3, 1e-3)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 8.0 < ratio < 32.0  # dt^4 scaling within a factor 2 of 16


def test_rk4_step_halving_estimate():
    dim = 32
    rho0 = density_from_vector(state_vector(StateSpec.coherent(1.0), dim))
    a = integrate_master_equation(rho0, 1.0, 0.25, 4e-3)
    b = integrate_master_equation(rho0, 1.0, 0.25, 2e-3)
    assert trace_distance(a, b) < 1e-7


def test_trace_conserved_over_unit_time():
    dim = 48
    rho0 = density_from_vector(state_vector(StateSpec.coherent(1.0), dim))
    for tau in (0.25, 0.5, 1.0):
        out = integrate_master_equation(rho0, 1.0, tau, 0.005)
        assert abs(state_metrics(out).trace - 1.0) < 1e-8


def test_quadrature_gaussian():
    res = quadrature_2d(lambda b: np.exp(-np.abs(b) ** 2), ComplexGrid(6.0, 64))
    assert abs(res.value - 1.0) < 1e-10
    assert res.refinement_estimate < 1e-8


def test_quadrature_trace_integrand():
    # the diagonal coherent expectation of the evolved coherent state
    # integrates to the unit trace
    z, tau = 1.0, 0.5
    def f(b):
        return np.exp(-np.abs(b - z) ** 2 / (tau + 1)) / (tau + 1)
    res = quadrature_2d(f, ComplexGrid(8.0, 64))
    assert abs(res.value - 1.0) < 1e-8


def test_quadrature_matches_moment_formula():
    res = quadrature_2d(
        lambda b: b * np.conj(b) * np.exp(-2 * np.abs(b) ** 2), ComplexGrid(6.0, 64)
    )
    closed = gaussian_moment_integral(1, 1, -2.0, 0.0, 0.0)
    assert closed == pytest.approx(0.25, abs=1e-14)
    assert abs(res.value - closed) < 1e-10


def test_quadrature_not_decayed():
    with pytest.raises(NotDecayed):
        quadrature_2d(lambda b: np.exp(-np.abs(b) ** 2), ComplexGrid(2.0, 32))


def test_quadrature_midpoint_rule():
    res = quadrature_2d(
        lambda b: np.exp(-np.abs(b) ** 2),
        ComplexGrid(6.0, 64, rule="midpoint"),
        estimate_refinement=False,
    )
    assert abs(res.value - 1.0) < 1e-10
    assert res.refinement_estimate is None


def test_grid_validation():
    with pytest.raises(ValueError):
        ComplexGrid(-1.0, 32)
    with pytest.raises(ValueError):
        ComplexGrid(5.0, 1)
    with pytest.raises(ValueError):
        ComplexGrid(5.0, 32, rule="simpson")
    g = ComplexGrid(5.0, 32)
    nodes, weights = g.nodes_weights()
    assert nodes.size == 32 * 32 and weights.size == 32 * 32
    assert abs(weights.sum() - 100.0) < 1e-9  # integrates 1 over the square
