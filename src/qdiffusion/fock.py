"""Truncated Fock-space operator algebra.

Everything lives on the basis |0>, ..., |dim-1>.  Two kernels realize the
normally ordered exponentials every closed-form channel output is built from:
the ordered Gaussian kernel :exp[lam a'a + mu a' + nu a]: as the concrete
matrix exp(mu a') (1+lam)^(a'a) exp(nu a), and the quadratic kernel
exp(q a'^2) x^(a'a) exp(q a^2) of the squeezed states.  Both are float64
products: the ordered kernel moves the phases of mu and nu out of its real
triangles (one real matmul when lam is real and nu = conj(mu)), and the
quadratic kernel multiplies its even and odd parity blocks apart.
"""

from dataclasses import dataclass

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NotNormalized,
    NumberExceedsCutoff,
    TruncationLoss,
)

#: pre-normalization mass a truncated expansion must retain before we refuse
TRUNCATION_NORM_FLOOR = 0.999

#: largest sqrt(dim) ||Im R||_F for which _eigvalsh solves Re R in place of the
#: Hermitian R = D' h D.  R = Re R + i Im R, and i Im R is Hermitian with
#: spectral norm <= ||Im R||_F, so by Weyl's inequality no eigenvalue moves by
#: more than ||Im R||_F, and the trace norm moves by at most
#: sqrt(dim) ||Im R||_F (the trace norm is at most sqrt(dim) times the
#: Frobenius norm).  Either move stays at 1e-13 or below, four orders under
#: the CLI's 1e-9 positivity tolerance and seven under its 1e-6 pair tolerance.
PHASE_REDUCTION_TOL = 1e-13


def _validate_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"cutoff dim must be an integer >= 2, got {dim!r}")


def annihilation_matrix(dim: int) -> np.ndarray:
    """Annihilation operator: A[n-1, n] = sqrt(n) for 1 <= n < dim."""
    _validate_dim(dim)
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def creation_matrix(dim: int) -> np.ndarray:
    """Creation operator, the conjugate transpose of annihilation_matrix."""
    return annihilation_matrix(dim).conj().T


@dataclass(frozen=True)
class StateSpec:
    """One of the supported input states: coherent(z), number(l), squeezed_vacuum(squeeze)."""

    kind: str
    z: complex = 0j
    l: int = 0
    squeeze: float = 0.0

    KINDS = ("coherent", "number", "squeezed_vacuum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.kind == "number" and (not isinstance(self.l, (int, np.integer)) or self.l < 0):
            raise ValueError("number state level l must be a nonnegative integer")

    @classmethod
    def coherent(cls, z: complex) -> "StateSpec":
        return cls(kind="coherent", z=complex(z))

    @classmethod
    def number(cls, l: int) -> "StateSpec":
        return cls(kind="number", l=int(l))

    @classmethod
    def squeezed_vacuum(cls, squeeze: float) -> "StateSpec":
        return cls(kind="squeezed_vacuum", squeeze=float(squeeze))

    def input_mean_photon(self) -> float:
        """Mean photon number of the described state (untruncated)."""
        if self.kind == "coherent":
            return abs(self.z) ** 2
        if self.kind == "number":
            return float(self.l)
        return math.sinh(self.squeeze) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Complex square matrix on the truncated Fock basis, with provenance label."""

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _validate_dim(m.shape[0])
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _sech(r: float) -> float:
    """1/cosh(r), which underflows to 0 where cosh(r) overflows (|r| > ~710)."""
    try:
        return 1.0 / math.cosh(r)
    except OverflowError:
        return 0.0


def state_vector(spec: StateSpec, dim: int) -> np.ndarray:
    """Normalized truncated expansion of the requested state.

    coherent:        c_n = exp(-|z|^2/2) z^n / sqrt(n!)
    number:          unit vector at index l
    squeezed_vacuum: c_{2k} = sqrt(sech r) (tanh(r)/2)^k sqrt((2k)!)/k!
    Raises TruncationLoss when the truncated expansion retains less than
    99.9% of its mass before renormalization; a squeeze whose sech underflows
    (|r| > ~710) keeps none.
    """
    _validate_dim(dim)
    if spec.kind == "number":
        if spec.l >= dim:
            raise NumberExceedsCutoff(f"number state l={spec.l} needs dim > {spec.l}, got {dim}")
        v = np.zeros(dim, dtype=np.complex128)
        v[spec.l] = 1.0
        return v

    if spec.kind == "coherent":
        v = coherent_column_matrix(spec.z, dim)
    else:  # squeezed_vacuum
        v = np.zeros(dim, dtype=np.complex128)
        t = math.tanh(spec.squeeze) / 2.0
        v[0] = math.sqrt(_sech(spec.squeeze))
        for k in range(1, (dim - 1) // 2 + 1):
            v[2 * k] = v[2 * (k - 1)] * t * math.sqrt((2 * k) * (2 * k - 1)) / k

    norm2 = float(np.vdot(v, v).real)
    if norm2 < TRUNCATION_NORM_FLOOR:
        raise TruncationLoss(
            f"{spec.kind} state keeps only {norm2:.6f} of its mass at dim={dim}"
        )
    return v / math.sqrt(norm2)


def coherent_column_matrix(alphas, dim: int, normalized: bool = True) -> np.ndarray:
    """Truncated coherent vectors |alpha>, one column per alpha (a scalar gives
    one vector): v[n] = v[n-1] alpha / sqrt(n) from v[0] = exp(-|alpha|^2/2),
    or from v[0] = 1 (the monomials alpha^n / sqrt(n!)) when not normalized."""
    alphas = np.asarray(alphas, dtype=np.complex128)
    v = np.empty((dim,) + alphas.shape, dtype=np.complex128)
    v[0] = np.exp(-0.5 * np.abs(alphas) ** 2) if normalized else 1.0
    for n in range(1, dim):
        v[n] = v[n - 1] * alphas / math.sqrt(n)
    return v


def coherent_gram(alphas: np.ndarray, coeffs: np.ndarray, dim: int) -> np.ndarray:
    """sum_j coeffs[j] |alpha_j><alpha_j| over truncated coherent vectors, as one
    matmul of the scaled columns with the columns conjugated in place."""
    cols = coherent_column_matrix(alphas, dim)
    scaled = cols * coeffs
    np.conjugate(cols, out=cols)
    return scaled @ cols.T


def density_from_vector(v: np.ndarray, label: str = "") -> DensityMatrix:
    """Rank-1 density matrix |v><v| for a unit vector v."""
    v = np.asarray(v, dtype=np.complex128)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalized(f"vector norm {norm} deviates from 1 beyond 1e-10")
    return DensityMatrix(np.outer(v, v.conj()), label=label)


def ladder_diagonal(d: np.ndarray, k: int) -> np.ndarray:
    """Diagonal of a'^k diag(d) a^k: d[j-k] j!/(j-k)! for j >= k, else 0.
    Exact under truncation: a'^k only restores levels a^k lowered."""
    size = max(d.size - k, 0)
    falling = np.ones(size)
    for i in range(k):
        falling *= np.arange(k, k + size) - i
    out = np.zeros(d.shape, dtype=d.dtype)
    out[k:] = d[:size] * falling
    return out


def _exp_raising(x: float, dim: int) -> np.ndarray:
    """exp(x a') for real x as a float64 lower triangle; exact since a' is
    nilpotent.

    E[i, j] = x^(i-j) sqrt(i!/j!) / (i-j)!  built by the row recurrence
    E[i, j] = E[i-1, j] * x * sqrt(i) / (i - j).
    """
    e = np.eye(dim)
    for i in range(1, dim):
        j = np.arange(i)
        e[i, :i] = e[i - 1, :i] * (x * math.sqrt(i)) / (i - j)
    return e


def _exp_quadratic_raising(c: float, dim: int) -> np.ndarray:
    """exp(c a'^2) for real c as float64; entries E[j+2k, j] = c^k/k!
    sqrt((j+2k)!/j!), built for every column j at once along the (-2k)-th
    diagonal by E[j+2k, j] = E[j+2k-2, j] * c * sqrt((j+2k)(j+2k-1)) / k."""
    e = np.eye(dim)
    band = np.ones(dim)
    for k in range(1, (dim - 1) // 2 + 1):
        i = np.arange(2 * k, dim)
        band = band[: i.size] * c * np.sqrt(i * (i - 1)) / k
        e[i, i - 2 * k] = band
    return e


def _powers(w: complex, dim: int) -> np.ndarray:
    """w^n for n < dim by repeated multiplication (more accurate than
    exp(1j n angle(w)) for a unit phase, and NaN passes through quietly)."""
    p = np.full(dim, w, dtype=np.complex128)
    p[0] = 1.0
    return np.cumprod(p, out=p)


def ordered_gaussian_kernel(lam: complex, mu: complex, nu: complex, dim: int) -> np.ndarray:
    """Matrix for the normally ordered exponential :exp[lam a'a + mu a' + nu a]:.

    Factorizes as exp(mu a') (1+lam)^(a'a) exp(nu a).  Phase covariance moves
    the phases u = mu/|mu| and v = nu/|nu| (1 at 0) out of the triangles:
    K = diag(u^n) E(|mu|) diag(w^k) E(|nu|)' diag(v^n) with w = (1+lam) u* v*
    and E = exp(x a') real.  The real part of diag(w^k) costs one float64
    product; only a complex w^k (lam not real or nu != conj(mu)) adds a second
    for its imaginary part.  lam = -1 is the vacuum-projector limit (the
    diagonal factor collapses to |0><0|).
    """
    _validate_dim(dim)
    lam, mu, nu = complex(lam), complex(mu), complex(nu)
    # Python scalars: a NaN mu (tau ~ 5e-324) must reach the caller's trace check
    u = mu / abs(mu) if mu else 1.0
    v = nu / abs(nu) if nu else 1.0
    with np.errstate(invalid="raise"):
        middle = _powers((1.0 + lam) * (u * v).conjugate(), dim)
        e_mu = _exp_raising(abs(mu), dim)
        e_nu = e_mu if abs(nu) == abs(mu) else _exp_raising(abs(nu), dim)
        core = (e_mu * middle.real) @ e_nu.T
        if np.any(middle.imag):
            core = core + 1j * ((e_mu * middle.imag) @ e_nu.T)
        kernel = np.multiply(core, _powers(u, dim)[:, None])
        kernel *= _powers(v, dim)
    return kernel


def quadratic_kernel(quad: float, ratio: float, dim: int) -> np.ndarray:
    """exp(quad a'^2) ratio^(a'a) exp(quad a^2) for real quad, the normally
    ordered exponential :exp[(ratio-1) a'a + quad (a'^2 + a^2)]:.  exp(quad a^2)
    is the transpose of exp(quad a'^2), so one triangle is built; it links
    only levels of equal parity, so the even and odd blocks are two float64
    products and every even-odd entry is exactly 0."""
    _validate_dim(dim)
    up = _exp_quadratic_raising(quad, dim)
    diag = ratio ** np.arange(dim)
    kernel = np.zeros((dim, dim), dtype=np.complex128)
    for p in (0, 1):
        block = up[p::2, p::2]
        kernel.real[p::2, p::2] = (block * diag[p::2]) @ block.T
    return kernel


@dataclass(frozen=True)
class StateMetrics:
    trace: float
    mean_photon: float
    purity: float
    hermiticity_residual: float
    min_eigenvalue: float


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the exactly Hermitian matrix h, which may be
    overwritten.  The structure the exact zeros of h leave is used first:

    * no imaginary part: the real matrix is solved;
    * no off-diagonal entry: the sorted diagonal is the spectrum;
    * no entry between even and odd levels: the parity blocks are solved
      apart.

    A finite complex h whose sub-diagonal has no zero is reduced by the diagonal
    phases D that make the sub-diagonal of R = D' h D real and positive, as
    for every phase-covariant output D R D' with R real.  Re R is solved only
    when sqrt(dim) ||Im R||_F <= PHASE_REDUCTION_TOL; anything else takes the
    complex solve.
    """
    if not np.any(h.imag):
        h = h.real
    diag = np.diagonal(h)
    if np.count_nonzero(h) == np.count_nonzero(diag):
        return np.sort(diag.real)
    if not np.any(h[0::2, 1::2]):
        even = np.linalg.eigvalsh(h[0::2, 0::2])
        odd = np.linalg.eigvalsh(h[1::2, 1::2])
        return np.sort(np.concatenate((even, odd)))
    sub = np.diagonal(h, -1)
    if np.iscomplexobj(h) and np.all(sub != 0) and np.isfinite(h).all():
        phases = np.ones(h.shape[0], dtype=np.complex128)
        phases[1:] = np.multiply.accumulate(sub / np.abs(sub))
        phases /= np.abs(phases)
        h *= phases.conj()[:, None]
        h *= phases[None, :]
        if math.sqrt(h.shape[0]) * np.linalg.norm(h.imag) <= PHASE_REDUCTION_TOL:
            return np.linalg.eigvalsh(h.real)
    return np.linalg.eigvalsh(h)


def state_metrics(rho: DensityMatrix) -> StateMetrics:
    """Trace, mean photon number, purity, hermiticity residual, min eigenvalue."""
    m = rho.entries
    diag = np.diag(m)
    sym = m.conj().T
    herm = float(np.max(np.abs(m - sym)))
    sym += m  # the Hermitian part (m + m')/2, formed where m' was
    sym *= 0.5
    return StateMetrics(
        trace=float(diag.sum().real),
        mean_photon=float((np.arange(rho.dim) * diag.real).sum()),
        purity=float(np.einsum("ij,ji->", m, m).real),
        hermiticity_residual=herm,
        min_eigenvalue=float(_eigvalsh(sym)[0]),
    )


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims {rho.dim} and {sigma.dim} differ")
    delta = rho.entries - sigma.entries
    delta += delta.conj().T
    delta *= 0.5
    return float(0.5 * np.abs(_eigvalsh(delta)).sum())


def default_cutoff_dim(input_mean_photon: float, tau: float) -> int:
    """Cutoff rule dim >= ceil(4*(n_in + tau) + 10); covers the thermalized tail."""
    return int(math.ceil(4.0 * (input_mean_photon + tau) + 10.0))
