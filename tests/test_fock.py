import math

import numpy as np
import pytest

from qdiffusion.errors import (
    DimensionMismatch,
    NotNormalized,
    NumberExceedsCutoff,
    TruncationLoss,
)
from qdiffusion.fock import (
    DensityMatrix,
    StateSpec,
    annihilation_matrix,
    creation_matrix,
    default_cutoff_dim,
    density_from_vector,
    ordered_gaussian_kernel,
    state_metrics,
    state_vector,
    trace_distance,
)
from qdiffusion.phase_space import coherent_column_matrix

from helpers import trace_norm_distance


def test_annihilation_entries():
    a = annihilation_matrix(2)
    assert a[0, 1] == 1.0
    a = annihilation_matrix(4)
    assert a[2, 3] == pytest.approx(math.sqrt(3), abs=0)
    assert np.count_nonzero(a) == 3


def test_ladder_identities_exact():
    dim = 9
    a = annihilation_matrix(dim)
    ad = creation_matrix(dim)
    for n in range(dim - 1):
        e = np.zeros(dim, complex)
        e[n] = 1.0
        down = a @ e
        up = ad @ e
        if n > 0:
            assert down[n - 1] == math.sqrt(n)
        else:
            assert not down.any()
        assert up[n + 1] == math.sqrt(n + 1)


def test_commutator_block():
    dim = 8
    a = annihilation_matrix(dim)
    ad = a.conj().T
    comm = a @ ad - ad @ a
    diag = np.diag(comm).real
    # sqrt(n)^2 rounds within one ulp of n, so the block identity holds to
    # machine precision rather than bitwise
    np.testing.assert_allclose(diag[: dim - 1], 1.0, rtol=0, atol=1e-14)
    assert diag[dim - 1] == pytest.approx(1.0 - dim, abs=1e-13)
    assert np.count_nonzero(comm - np.diag(np.diag(comm))) == 0


def test_coherent_vacuum_and_number_states():
    v = state_vector(StateSpec.coherent(0.0), 8)
    assert v[0] == 1.0 and not v[1:].any()
    v = state_vector(StateSpec.number(3), 8)
    assert v[3] == 1.0 and np.count_nonzero(v) == 1


def test_coherent_mean_photon():
    v = state_vector(StateSpec.coherent(1.0), 32)
    mean = float((np.arange(32) * np.abs(v) ** 2).sum())
    assert abs(mean - 1.0) < 1e-10


def test_coherent_matches_poisson_amplitudes():
    z = 0.8 - 0.3j
    v = state_vector(StateSpec.coherent(z), 24)
    expected = np.array(
        [np.exp(-abs(z) ** 2 / 2) * z**n / math.sqrt(math.factorial(n)) for n in range(24)]
    )
    np.testing.assert_allclose(v, expected, atol=1e-14)


def test_squeezed_vacuum_structure():
    lam = 0.5
    v = state_vector(StateSpec.squeezed_vacuum(lam), 40)
    assert np.all(v[1::2] == 0)  # only even levels occupied
    assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)
    mean = float((np.arange(40) * np.abs(v) ** 2).sum())
    assert mean == pytest.approx(math.sinh(lam) ** 2, abs=1e-10)
    # raw amplitudes before renormalization follow sqrt(sech) (tanh/2)^k sqrt((2k)!)/k!
    c2 = math.sqrt(1 / math.cosh(lam)) * (math.tanh(lam) / 2) * math.sqrt(2)
    assert v[2] == pytest.approx(c2, rel=1e-12)


def test_truncation_loss_raised():
    with pytest.raises(TruncationLoss):
        state_vector(StateSpec.coherent(3.0), 8)
    with pytest.raises(NumberExceedsCutoff):
        state_vector(StateSpec.number(8), 8)


def test_state_spec_validation():
    with pytest.raises(ValueError):
        StateSpec(kind="unknown")
    with pytest.raises(ValueError):
        StateSpec(kind="number", l=-1)
    assert StateSpec.coherent(2.0).input_mean_photon() == pytest.approx(4.0)
    assert StateSpec.number(3).input_mean_photon() == 3.0
    assert StateSpec.squeezed_vacuum(0.5).input_mean_photon() == pytest.approx(
        math.sinh(0.5) ** 2
    )


def test_density_from_vector():
    rho = density_from_vector(state_vector(StateSpec.number(0), 6))
    assert rho.entries[0, 0] == 1.0 and np.count_nonzero(rho.entries) == 1
    rho = density_from_vector(state_vector(StateSpec.number(1), 6))
    assert rho.entries[1, 1] == 1.0
    rho = density_from_vector(state_vector(StateSpec.coherent(1.0), 32))
    assert state_metrics(rho).purity == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(NotNormalized):
        density_from_vector(np.array([1.0, 1.0], complex))


def test_density_matrix_validation_and_immutability():
    with pytest.raises(ValueError):
        DensityMatrix(np.zeros((2, 3)))
    rho = density_from_vector(state_vector(StateSpec.number(0), 4))
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.0


def test_kernel_trivial_cases():
    np.testing.assert_array_equal(ordered_gaussian_kernel(0.0, 0.0, 0.0, 6), np.eye(6))
    vac = ordered_gaussian_kernel(-1.0, 0.0, 0.0, 6)
    expected = np.zeros((6, 6), complex)
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(vac, expected)


def test_kernel_reproduces_coherent_projector():
    z = (1.0 + 0.0j) * np.exp(0.3j)  # |z| = 1
    dim = 32
    kernel = math.exp(-abs(z) ** 2) * ordered_gaussian_kernel(-1.0, z, z.conjugate(), dim)
    proj = density_from_vector(state_vector(StateSpec.coherent(z), dim)).entries
    assert np.max(np.abs(kernel - proj)) < 1e-10


def test_kernel_matches_double_sum():
    rng = np.random.default_rng(11)
    dim = 14
    a = annihilation_matrix(dim)
    ad = a.conj().T
    for _ in range(4):
        lam = complex(rng.uniform(-0.9, 1.0), rng.uniform(-0.5, 0.5))
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        nu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        diag = np.diag(np.power(1 + lam, np.arange(dim)).astype(complex))
        brute = np.zeros((dim, dim), complex)
        for j in range(dim):
            for k in range(dim):
                brute += (
                    (mu**j / math.factorial(j))
                    * (nu**k / math.factorial(k))
                    * (np.linalg.matrix_power(ad, j) @ diag @ np.linalg.matrix_power(a, k))
                )
        kernel = ordered_gaussian_kernel(lam, mu, nu, dim)
        assert np.max(np.abs(kernel - brute)) < 1e-10


def test_coherent_columns_match_factorial_formula():
    dim = 12
    alphas = np.array([0.0, 0.3 - 1.1j, -2.0 + 0.5j])
    cols = coherent_column_matrix(alphas, dim)
    monomials = coherent_column_matrix(alphas, dim, normalized=False)
    for j, z in enumerate(complex(x) for x in alphas):
        expected = np.array([z**n / math.sqrt(math.factorial(n)) for n in range(dim)])
        np.testing.assert_allclose(monomials[:, j], expected, rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            cols[:, j], math.exp(-abs(z) ** 2 / 2) * expected, rtol=1e-13, atol=0
        )
    np.testing.assert_array_equal(coherent_column_matrix(alphas[1], dim), cols[:, 1])


def test_coherent_resolution_of_identity():
    # quadrature of |a><a|/pi over radius 6 reproduces identity on levels 0..5
    x, w = np.polynomial.legendre.leggauss(64)
    x, w = x * 6.0, w * 6.0
    nodes = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w[:, None] * w[None, :]).ravel()
    cols = coherent_column_matrix(nodes, 8)
    resolved = (cols * (weights / np.pi)[None, :]) @ cols.conj().T
    assert np.max(np.abs(resolved[:6, :6] - np.eye(6))) < 1e-6


def test_state_metrics_basics():
    rho = density_from_vector(state_vector(StateSpec.number(0), 8))
    m = state_metrics(rho)
    assert m.trace == pytest.approx(1.0, abs=1e-14)
    assert m.mean_photon == 0.0
    assert m.purity == pytest.approx(1.0, abs=1e-14)
    assert m.hermiticity_residual == 0.0

    mixed = DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex))
    m = state_metrics(mixed)
    assert m.purity == pytest.approx(0.5, abs=1e-14)
    assert m.mean_photon == pytest.approx(0.5, abs=1e-14)
    assert m.min_eigenvalue == pytest.approx(0.0, abs=1e-14)


def test_trace_distance_against_svd_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = b @ b.conj().T
    b /= np.trace(b).real
    got = trace_distance(DensityMatrix(a), DensityMatrix(b))
    assert got == pytest.approx(trace_norm_distance(a, b), rel=1e-12)
    with pytest.raises(DimensionMismatch):
        trace_distance(DensityMatrix(a), DensityMatrix(np.eye(4) / 4))


def test_default_cutoff_rule():
    assert default_cutoff_dim(0.0, 0.0) == 10
    assert default_cutoff_dim(1.0, 0.5) == 16
    assert default_cutoff_dim(2.5, 1.0) == 24
