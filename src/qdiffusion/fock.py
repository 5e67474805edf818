"""Truncated Fock-space operator algebra.

Everything lives on the basis |0>, ..., |dim-1>.  The ordered Gaussian
kernel realizes normally ordered exponentials
:exp[lam a'a + mu a' + nu a]: as the concrete matrix
exp(mu a') (1+lam)^(a'a) exp(nu a), which is the single primitive every
closed-form channel output is built from.
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


def state_vector(spec: StateSpec, dim: int) -> np.ndarray:
    """Normalized truncated expansion of the requested state.

    coherent:        c_n = exp(-|z|^2/2) z^n / sqrt(n!)
    number:          unit vector at index l
    squeezed_vacuum: c_{2k} = sqrt(sech r) (tanh(r)/2)^k sqrt((2k)!)/k!
    Raises TruncationLoss when the truncated expansion retains less than
    99.9% of its mass before renormalization.
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
        v[0] = math.sqrt(1.0 / math.cosh(spec.squeeze))
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


def _exp_raising(mu: complex, dim: int) -> np.ndarray:
    """exp(mu a') as a lower-triangular matrix; exact since a' is nilpotent.

    E[i, j] = mu^(i-j) sqrt(i!/j!) / (i-j)!  built by the row recurrence
    E[i, j] = E[i-1, j] * mu * sqrt(i) / (i - j).
    """
    e = np.eye(dim, dtype=np.complex128)
    if mu == 0:
        return e
    for i in range(1, dim):
        j = np.arange(i)
        e[i, :i] = e[i - 1, :i] * (mu * math.sqrt(i)) / (i - j)
    return e


def _exp_lowering(nu: complex, dim: int) -> np.ndarray:
    """exp(nu a); the transpose of exp(nu a') because a = (a')^T here."""
    return _exp_raising(nu, dim).T.copy()


def _exp_quadratic_raising(c: complex, dim: int) -> np.ndarray:
    """exp(c a'^2); entries E[j+2k, j] = c^k/k! sqrt((j+2k)!/j!)."""
    e = np.eye(dim, dtype=np.complex128)
    if c == 0:
        return e
    for j in range(dim):
        val = 1.0 + 0j
        k = 0
        while j + 2 * (k + 1) < dim:
            k += 1
            i = j + 2 * k
            val = val * c * math.sqrt(i * (i - 1)) / k
            e[i, j] = val
    return e


def ordered_gaussian_kernel(lam: complex, mu: complex, nu: complex, dim: int) -> np.ndarray:
    """Matrix for the normally ordered exponential :exp[lam a'a + mu a' + nu a]:.

    Factorizes as exp(mu a') (1+lam)^(a'a) exp(nu a).  lam = -1 is the
    vacuum-projector limit (the diagonal factor collapses to |0><0|).
    """
    _validate_dim(dim)
    diag = np.power(1.0 + complex(lam), np.arange(dim))
    e_up = _exp_raising(mu, dim)
    e_down = _exp_lowering(nu, dim)
    return (e_up * diag[None, :]) @ e_down


@dataclass(frozen=True)
class StateMetrics:
    trace: float
    mean_photon: float
    purity: float
    hermiticity_residual: float
    min_eigenvalue: float


def state_metrics(rho: DensityMatrix) -> StateMetrics:
    """Trace, mean photon number, purity, hermiticity residual, min eigenvalue."""
    m = rho.entries
    diag = np.diag(m)
    herm = float(np.max(np.abs(m - m.conj().T)))
    sym = 0.5 * (m + m.conj().T)
    eigs = np.linalg.eigvalsh(sym)
    return StateMetrics(
        trace=float(diag.sum().real),
        mean_photon=float((np.arange(rho.dim) * diag.real).sum()),
        purity=float(np.einsum("ij,ji->", m, m).real),
        hermiticity_residual=herm,
        min_eigenvalue=float(eigs[0]),
    )


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims {rho.dim} and {sigma.dim} differ")
    delta = rho.entries - sigma.entries
    delta = 0.5 * (delta + delta.conj().T)
    return float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())


def default_cutoff_dim(input_mean_photon: float, tau: float) -> int:
    """Cutoff rule dim >= ceil(4*(n_in + tau) + 10); covers the thermalized tail."""
    return int(math.ceil(4.0 * (input_mean_photon + tau) + 10.0))
