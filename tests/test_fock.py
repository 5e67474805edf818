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
    _eigvalsh,
    _exp_quadratic_raising,
    annihilation_matrix,
    coherent_gram,
    creation_matrix,
    default_cutoff_dim,
    density_from_vector,
    ordered_gaussian_kernel,
    quadratic_kernel,
    state_metrics,
    state_vector,
    trace_distance,
)
from qdiffusion.channel import coherent_output, squeezed_output
from qdiffusion.phase_space import coherent_column_matrix

from helpers import (
    dense_ladder,
    hermitian_kernel_entry,
    scalar_exp_quadratic_raising,
    trace_norm_distance,
)


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


@pytest.mark.parametrize("lam", [0.5, -1.0, 1.5])
def test_squeezed_vacuum_bit_identical_to_cosh_form(lam):
    dim = 120
    v = np.zeros(dim, dtype=np.complex128)
    v[0] = math.sqrt(1.0 / math.cosh(lam))
    for k in range(1, (dim - 1) // 2 + 1):
        v[2 * k] = v[2 * (k - 1)] * (math.tanh(lam) / 2.0) * math.sqrt((2 * k) * (2 * k - 1)) / k
    v /= math.sqrt(float(np.vdot(v, v).real))
    np.testing.assert_array_equal(state_vector(StateSpec.squeezed_vacuum(lam), dim), v)


@pytest.mark.parametrize("lam", [711.0, 1000.0, -1000.0])
def test_squeeze_beyond_cosh_range_keeps_no_mass(lam):
    # cosh overflows here; sech underflows to 0 and the expansion is empty
    with pytest.raises(TruncationLoss, match="keeps only 0.000000"):
        state_vector(StateSpec.squeezed_vacuum(lam), 20)


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
    for dim in (14, 14, 14, 14, 24):
        a = annihilation_matrix(dim)
        ad = a.conj().T
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


@pytest.mark.parametrize("dim", [192, 414])
@pytest.mark.parametrize("phase", [0.0, 0.7, 2.5, -1.9])
def test_kernel_at_scale_matches_log_space_sums(dim, phase):
    # the channel's parameters: lam = -1/(tau+1), nu = conj(mu)
    tau = 1.0 + phase**2  # 1.0, 1.49, 7.25, 4.61
    mu = 2.2 * complex(math.cos(phase), math.sin(phase)) / (1.0 + tau)
    kernel = ordered_gaussian_kernel(-1.0 / (tau + 1.0), mu, mu.conjugate(), dim)
    rows = sorted({0, 1, dim // 3, dim // 2, dim - 1})
    # atol only covers the far corners, which underflow to subnormals at dim 414
    for i in rows:
        expected = [hermitian_kernel_entry(i, j, mu, tau) for j in range(dim)]
        np.testing.assert_allclose(kernel[i], expected, rtol=2e-12, atol=1e-250)
    expected = [hermitian_kernel_entry(i, i, mu, tau) for i in range(dim)]
    np.testing.assert_allclose(np.diagonal(kernel), expected, rtol=2e-12, atol=1e-250)


@pytest.mark.parametrize("dim", [2, 3, 64, 193])
@pytest.mark.parametrize("c", [0.0, 0.23, -0.41])
def test_quadratic_raising_bit_identical_to_scalar_loop(dim, c):
    np.testing.assert_array_equal(
        _exp_quadratic_raising(c, dim), scalar_exp_quadratic_raising(c, dim)
    )


@pytest.mark.parametrize("quad, ratio", [(0.2, 0.6), (-0.15, 1.3), (0.0, 0.5)])
def test_quadratic_kernel_matches_dense_series(quad, ratio):
    dim = 16
    raise2 = dense_ladder(dim).T @ dense_ladder(dim).T
    up = np.zeros((dim, dim))
    term = np.eye(dim)
    for k in range(dim // 2 + 1):  # (a'^2)^k vanishes once 2k >= dim
        up += term
        term = quad * (term @ raise2) / (k + 1)
    expected = up @ np.diag(ratio ** np.arange(dim)) @ up.T
    kernel = quadratic_kernel(quad, ratio, dim)
    assert np.max(np.abs(kernel - expected)) < 1e-13 * np.max(np.abs(expected))
    assert not np.any(kernel[0::2, 1::2]) and not np.any(kernel[1::2, 0::2])


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


def test_coherent_gram_is_weighted_projector_sum():
    dim = 10
    alphas = np.array([0.0, 0.3 - 1.1j, -2.0 + 0.5j])
    coeffs = np.array([0.5, -0.25 + 1j, 2.0j])
    expected = np.zeros((dim, dim), dtype=np.complex128)
    for c, z in zip(coeffs, alphas):
        v = np.array([math.exp(-abs(z) ** 2 / 2) * z**n / math.sqrt(math.factorial(n))
                      for n in range(dim)])
        expected += c * np.outer(v, v.conj())
    np.testing.assert_allclose(coherent_gram(alphas, coeffs, dim), expected, rtol=0, atol=1e-14)


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


def _hermitian(rng, dim, complex_part=True):
    a = rng.normal(size=(dim, dim))
    if complex_part:
        a = a + 1j * rng.normal(size=(dim, dim))
    return (0.5 * (a + a.conj().T)).astype(np.complex128)


def _parity(h):
    h = h.copy()
    h[0::2, 1::2] = 0
    h[1::2, 0::2] = 0
    return h


def _eig_cases():
    """name -> (exactly Hermitian matrix, the (shape, dtype kind) of every
    np.linalg.eigvalsh call _eigvalsh must make on it)."""
    rng = np.random.default_rng(7)
    dim = 12
    real_dense = _hermitian(rng, dim, complex_part=False)
    tiny_cross = _parity(real_dense)
    tiny_cross[2, 5] = tiny_cross[5, 2] = 1e-300
    cut = coherent_output(0.6 - 0.4j, 0.5, dim).entries.copy()
    cut[6, 5] = cut[5, 6] = 0
    coherent = coherent_output(2.0 * np.exp(2.1j), 0.75, 40).entries
    squeezed = squeezed_output(0.8, 0.5, 30).entries
    return {
        "zero": (np.zeros((dim, dim), dtype=np.complex128), []),
        "diagonal": (np.diag(rng.normal(size=dim)).astype(np.complex128), []),
        "real_parity": (_parity(real_dense), [((6, 6), "f")] * 2),
        "real_dense": (real_dense, [((dim, dim), "f")]),
        "complex_parity": (_parity(_hermitian(rng, dim)), [((6, 6), "c")] * 2),
        "coherent": (0.5 * (coherent + coherent.conj().T), [((40, 40), "f")]),
        "squeezed": (0.5 * (squeezed + squeezed.conj().T), [((15, 15), "f")] * 2),
        "generic_complex": (_hermitian(rng, dim), [((dim, dim), "c")]),
        "tiny_cross_parity": (tiny_cross, [((dim, dim), "f")]),
        "zero_subdiagonal": (cut, [((dim, dim), "c")]),
    }


@pytest.mark.parametrize("name", [
    "zero", "diagonal", "real_parity", "real_dense", "complex_parity", "coherent",
    "squeezed", "generic_complex", "tiny_cross_parity", "zero_subdiagonal",
])
def test_structured_eigvalsh_matches_dense(monkeypatch, name):
    h, expected_calls = _eig_cases()[name]
    dense_eigvalsh = np.linalg.eigvalsh
    dense = dense_eigvalsh(h)
    calls = []

    def spy(a):
        calls.append((a.shape, a.dtype.kind))
        return dense_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = _eigvalsh(h.copy())
    assert calls == expected_calls
    assert np.all(np.diff(got) >= 0)
    scale = max(np.abs(dense).max(), 1.0)
    assert np.abs(got - dense).max() <= 1e-13 * scale


def test_phase_reduction_is_certified_on_coherent_output():
    dim = 40
    rho = coherent_output(2.0 * np.exp(2.1j), 0.75, dim).entries
    h = 0.5 * (rho + rho.conj().T)
    _eigvalsh(h)  # leaves R = D' h D in h
    assert np.all(np.diagonal(h, -1).real > 0)
    assert math.sqrt(dim) * np.linalg.norm(h.imag) <= 1e-14


def test_metrics_leave_their_inputs_untouched():
    coherent = coherent_output(1.5 * np.exp(0.4j), 0.5, 24)
    squeezed = squeezed_output(0.6, 0.5, 24)
    before = [coherent.entries.copy(), squeezed.entries.copy()]
    state_metrics(coherent)
    state_metrics(squeezed)
    trace_distance(coherent, squeezed)
    trace_distance(squeezed, coherent)
    np.testing.assert_array_equal(coherent.entries, before[0])
    np.testing.assert_array_equal(squeezed.entries, before[1])


def test_default_cutoff_rule():
    assert default_cutoff_dim(0.0, 0.0) == 10
    assert default_cutoff_dim(1.0, 0.5) == 16
    assert default_cutoff_dim(2.5, 1.0) == 24
