"""Independent ground truth for the channel routes.

Direct fixed-step RK4 integration of the diffusion master equation, and
brute-force tensor-rule quadrature over a square patch of the complex plane
(with the 1/pi measure folded in).  Both are deliberately dumb and
deterministic; everything cleverer in the package is validated against them.

The master equation is taken in Lindblad form with the truncated jumps a, a':

    d rho/dt = kappa (a' rho a + a rho a' - h rho - rho h),  h = (a'a + aa')/2.

Wherever aa' = a'a + 1 this is the paper's equation
-kappa (a'a rho - a' rho a - a rho a' + rho aa'); on the truncated box, where
aa' has no level above the top to raise into, it still preserves the trace
and Hermiticity.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotDecayed, StepTooLarge, TruncationLoss
from .fock import DensityMatrix

#: accuracy contract for the fixed-step integrator
MAX_KAPPA_DT = 0.01

#: RK4 is stable for h * (spectral radius) up to ~2.785 on the negative real
#: axis; the truncated generator's spectral radius is below 4 dim kappa
RK4_STABILITY_LIMIT = 2.785

#: top Fock level occupation beyond which integration results are rejected
TOP_LEVEL_OCCUPATION_LIMIT = 1e-6

_RULES = ("midpoint", "gauss_legendre_tensor")


@dataclass(frozen=True)
class ComplexGrid:
    """Rectangular sampling of the complex plane: square [-radius, radius]^2."""

    radius: float
    points_per_axis: int
    rule: str = "gauss_legendre_tensor"

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.points_per_axis < 2:
            raise ValueError(f"points_per_axis must be >= 2, got {self.points_per_axis}")
        if self.rule not in _RULES:
            raise ValueError(f"rule must be one of {_RULES}, got {self.rule!r}")

    def axis_nodes_weights(self):
        n, r = self.points_per_axis, self.radius
        if self.rule == "midpoint":
            h = 2.0 * r / n
            x = -r + h * (np.arange(n) + 0.5)
            w = np.full(n, h)
        else:
            x, w = np.polynomial.legendre.leggauss(n)
            x = x * r
            w = w * r
        return x, w

    def nodes_weights(self):
        """Flattened complex nodes x + i y and tensor-product weights."""
        x, wx = self.axis_nodes_weights()
        nodes = (x[:, None] + 1j * x[None, :]).ravel()
        weights = (wx[:, None] * wx[None, :]).ravel()
        return nodes, weights

    def boundary_ring(self) -> np.ndarray:
        """Sample points along the square's edges, for decay checks."""
        x, _ = self.axis_nodes_weights()
        r = self.radius
        return np.concatenate(
            [x + 1j * r, x - 1j * r, r + 1j * x, -r + 1j * x]
        )

    def refined(self) -> "ComplexGrid":
        return ComplexGrid(self.radius, 2 * self.points_per_axis, self.rule)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    refinement_estimate: Optional[float] = None


def quadrature_2d(
    f: Callable[[np.ndarray], np.ndarray],
    grid: ComplexGrid,
    decay_tol: float = 1e-12,
    estimate_refinement: bool = True,
) -> QuadratureResult:
    """Tensor-rule value of int d2b/pi f(b) over the grid's square patch.

    ``f`` must accept an ndarray of complex points.  Raises NotDecayed when
    |f| on the square's boundary exceeds decay_tol relative to the larger of
    1 and the interior maximum.  The refinement estimate is the change under
    doubling points_per_axis.
    """

    def tensor_sum(g: ComplexGrid) -> complex:
        nodes, weights = g.nodes_weights()
        vals = np.asarray(f(nodes))
        return complex((weights * vals).sum() / np.pi)

    nodes, weights = grid.nodes_weights()
    vals = np.asarray(f(nodes))
    interior_max = float(np.max(np.abs(vals)))
    boundary_max = float(np.max(np.abs(np.asarray(f(grid.boundary_ring())))))
    if boundary_max > decay_tol * max(1.0, interior_max):
        raise NotDecayed(
            f"boundary magnitude {boundary_max:.3e} exceeds "
            f"{decay_tol:.1e} x max(1, interior {interior_max:.3e})"
        )
    value = complex((weights * vals).sum() / np.pi)
    estimate = None
    if estimate_refinement:
        estimate = abs(tensor_sum(grid.refined()) - value)
    return QuadratureResult(value=value, refinement_estimate=estimate)


def _bands(entries: np.ndarray, kappa: float):
    """Pack the occupied diagonal bands of entries with the truncated
    generator's coefficients.

    L(rho) = rate * rho + ladder * (rho shifted down the diagonal) +
    ladder * (rho shifted up): a' rho a is sqrt(i) sqrt(j) rho[i-1, j-1] and
    a rho a' is sqrt(i+1) sqrt(j+1) rho[i+1, j+1], both with ladder[i, j] =
    kappa sqrt(i+1) sqrt(j+1).  The rate is -kappa (h_i + h_j), with
    h = (a'a + aa')/2 and (aa')_j = j + 1 below the top level and 0 on it.

    Every diagonal offset maps to itself through a real symmetric tridiagonal
    block, so the real and the imaginary part of each offset evolve on their
    own.  Each (offset, part) holding a nonzero entry is laid end to end in
    one real vector v.  Returns (v, rate, couple, index): rate[p] is the rate
    of v[p], couple[p] links v[p] and v[p+1] (0 where two parts meet), and
    v[p] is entry index[p] of the entries' float64 view.
    """
    dim = entries.shape[0]
    n = np.arange(dim, dtype=np.float64)
    aad = n + 1.0
    aad[-1] = 0.0
    h = 0.5 * (n + aad)
    rate = -kappa * (h[:, None] + h[None, :])
    root = np.sqrt(n[1:])
    ladder = kappa * np.outer(root, root)

    flat = entries.view(np.float64).ravel()
    index, rates, couples = [np.empty(0, np.intp)], [np.empty(0)], [np.empty(0)]
    for d in range(1 - dim, dim):
        # entry (i, i+d), or (i-d, i) below the diagonal, is complex number
        # start + i (dim+1) of the row-major matrix
        start = d if d >= 0 else -d * dim
        band = 2 * (start + (dim + 1) * np.arange(dim - abs(d)))
        for part in (band, band + 1):
            if np.any(flat[part] != 0):
                index.append(part)
                rates.append(np.diagonal(rate, d))
                couples += [np.diagonal(ladder, d), np.zeros(1)]
    index = np.concatenate(index)
    return flat[index], np.concatenate(rates), np.concatenate(couples)[:-1], index


def _unpack(v: np.ndarray, index: np.ndarray, dim: int) -> np.ndarray:
    """The complex (dim, dim) matrix holding v at the packed positions."""
    flat = np.zeros(2 * dim * dim)
    flat[index] = v
    return flat.view(np.complex128).reshape(dim, dim)


def _banded_rhs(v: np.ndarray, rate: np.ndarray, couple: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Write L on the packed bands into out: rate v plus the two neighbours."""
    np.multiply(rate, v, out=out)
    out[1:] += couple * v[:-1]  # a' rho a
    out[:-1] += couple * v[1:]  # a rho a'
    return out


def lindblad_rhs(rho: DensityMatrix, kappa: float) -> DensityMatrix:
    """Right-hand side of the diffusion master equation at the given state."""
    v, rate, couple, index = _bands(rho.entries, kappa)
    out = _banded_rhs(v, rate, couple, np.empty_like(v))
    return DensityMatrix(_unpack(out, index, rho.dim), label="lindblad_rhs")


def integrate_master_equation(
    rho0: DensityMatrix,
    kappa: float,
    t_final: float,
    dt: float,
) -> DensityMatrix:
    """Classical fixed-step RK4 evolution of rho0 to time t_final.

    The step is shrunk (never grown) so an integer number of steps lands
    exactly on t_final.  kappa*dt must not exceed 0.01, and kappa*dt*4*dim
    must stay inside RK4's stability interval.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final == 0:
        return DensityMatrix(rho0.entries.copy(), label="ode_oracle")
    if dt > t_final:
        raise ValueError(f"dt={dt} exceeds t_final={t_final}")
    if kappa * dt > MAX_KAPPA_DT * (1 + 1e-12):
        raise StepTooLarge(f"kappa*dt = {kappa * dt} violates the {MAX_KAPPA_DT} contract")
    dim = rho0.dim
    if kappa * dt * 4 * dim > RK4_STABILITY_LIMIT:
        raise StepTooLarge(
            f"kappa*dt*4*dim = {kappa * dt * 4 * dim:.4g} exceeds RK4's stability "
            f"limit {RK4_STABILITY_LIMIT} at dim {dim}"
        )

    n_steps = max(1, int(np.ceil(t_final / dt - 1e-12)))
    h = t_final / n_steps

    v, rate, couple, index = _bands(rho0.entries, kappa)
    k, stage, acc = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    for _ in range(n_steps):
        # acc collects k1 + 2 k2 + 2 k3 + k4; k holds the current stage slope
        _banded_rhs(v, rate, couple, acc)
        np.multiply(acc, 0.5 * h, out=stage)
        stage += v
        _banded_rhs(stage, rate, couple, k)
        np.multiply(k, 0.5 * h, out=stage)
        stage += v
        k *= 2.0
        acc += k
        _banded_rhs(stage, rate, couple, k)
        np.multiply(k, h, out=stage)
        stage += v
        k *= 2.0
        acc += k
        _banded_rhs(stage, rate, couple, k)
        acc += k
        acc *= h / 6.0
        v += acc

    rho = _unpack(v, index, dim)
    top = float(rho[dim - 1, dim - 1].real)
    if not abs(top) <= TOP_LEVEL_OCCUPATION_LIMIT:
        raise TruncationLoss(
            f"top-level occupation {top:.3e} exceeds {TOP_LEVEL_OCCUPATION_LIMIT:.1e} "
            "in magnitude; increase the cutoff"
        )
    return DensityMatrix(rho, label="ode_oracle")
