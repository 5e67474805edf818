"""Quasi-probability layer.

Forward and inverse P-representation transforms, the cross matrix element
<-b|rho|b> that drives the inversion, the classical diffusion PDE check for
the evolved coherent P-function, and finite-difference checks of the
derivative identities behind the classical correspondence.
"""

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    NotDecayed,
    QuadratureNotConverged,
    StencilOutOfRange,
    TruncationLoss,
    ZeroTime,
)
from .fock import (
    DensityMatrix,
    StateSpec,
    annihilation_matrix,
    coherent_column_matrix,
    coherent_gram,
    density_from_vector,
    state_vector,
)
from .oracle import ComplexGrid

#: default bound for the grid-refinement convergence check
QUADRATURE_REFINEMENT_TOL = 1e-5


@dataclass(frozen=True)
class PFunctionAnalytic:
    """Analytic P-function: a delta spike at z or a normalized Gaussian.

    gaussian(center c, variance v) is P(a) = (1/v) exp(-|a-c|^2/v), which
    integrates to 1 against the d2a/pi measure; it is both the thermal-input
    P-function (c=0, v=nbar) and the evolved coherent one (c=z, v=tau).
    """

    kind: str
    center: complex = 0j
    variance: float = 0.0

    def __post_init__(self):
        if self.kind not in ("delta", "gaussian"):
            raise ValueError(f"unknown P-function kind {self.kind!r}")
        if self.kind == "gaussian" and not self.variance > 0:
            raise ValueError("gaussian P-function needs variance > 0")

    @classmethod
    def delta(cls, z: complex) -> "PFunctionAnalytic":
        return cls(kind="delta", center=complex(z))

    @classmethod
    def gaussian(cls, center: complex, variance: float) -> "PFunctionAnalytic":
        return cls(kind="gaussian", center=complex(center), variance=float(variance))

    def __call__(self, alpha: np.ndarray) -> np.ndarray:
        if self.kind == "delta":
            raise ValueError("delta P-function has no pointwise values")
        return p_coherent_evolved(alpha, self.center, self.variance)


def p_coherent_evolved(alpha: Union[complex, np.ndarray], z: complex, tau: float) -> np.ndarray:
    """P-function of a diffused coherent state, (1/tau) exp(-|z-alpha|^2/tau),
    at every alpha of an array (or one scalar)."""
    if tau <= 0:
        raise ZeroTime("the evolved P-function is a delta spike at tau = 0")
    return np.exp(-np.abs(complex(z) - np.asarray(alpha)) ** 2 / tau) / tau


def integrate_with_refinement(
    assemble: Callable[[ComplexGrid], np.ndarray],
    grid: ComplexGrid,
    check_convergence: bool,
) -> np.ndarray:
    """The quadrature assemble(grid).  With check_convergence, raises
    QuadratureNotConverged when assemble(grid.refined()) differs from it by
    more than QUADRATURE_REFINEMENT_TOL in max-norm."""
    out = assemble(grid)
    if check_convergence:
        change = float(np.max(np.abs(assemble(grid.refined()) - out)))
        if change > QUADRATURE_REFINEMENT_TOL:
            raise QuadratureNotConverged(
                f"doubling the grid moved the result by {change:.3e} > "
                f"{QUADRATURE_REFINEMENT_TOL:.1e}"
            )
    return out


def rho_from_p(
    p: Union[PFunctionAnalytic, Callable[[np.ndarray], np.ndarray]],
    dim: int,
    grid: ComplexGrid,
    check_convergence: bool = True,
) -> DensityMatrix:
    """Quadrature of int d2a/pi P(a) |a><a| with truncated coherent projectors.

    Delta inputs bypass quadrature and return the coherent projector exactly.
    """
    if isinstance(p, PFunctionAnalytic) and p.kind == "delta":
        return density_from_vector(
            state_vector(StateSpec.coherent(p.center), dim), label="p_representation"
        )

    def assemble(g: ComplexGrid) -> np.ndarray:
        nodes, weights = g.nodes_weights()
        pvals = np.asarray(p(nodes), dtype=np.complex128)
        return coherent_gram(nodes, weights * pvals / np.pi, dim)

    rho = integrate_with_refinement(assemble, grid, check_convergence)
    return DensityMatrix(rho, label="p_representation")


def husimi_cross_element(rho: DensityMatrix, beta: complex) -> complex:
    """The bilinear form <-beta| rho |beta> between truncated coherent vectors."""
    bra = state_vector(StateSpec.coherent(-complex(beta)), rho.dim)
    ket = state_vector(StateSpec.coherent(complex(beta)), rho.dim)
    return complex(np.vdot(bra, rho.entries @ ket))


def _coherent_tail_mass(radius: float, dim: int) -> float:
    """Poisson mass a coherent state of amplitude `radius` has at levels >= dim."""
    lam = radius * radius
    total = 0.0
    term = math.exp(-lam)
    for n in range(dim):
        total += term
        term *= lam / (n + 1)
    return max(0.0, 1.0 - total)


def p_from_rho_mehta(
    rho: DensityMatrix,
    alpha: complex,
    grid: ComplexGrid,
    decay_tol: float = 1e-5,
) -> complex:
    """Inverse P-representation
    P(a) = e^{|a|^2} int d2b/pi <-b|rho|b> e^{|b|^2 + b* a - b a*}.

    Only works for states whose kernel beats the e^{|b|^2} growth
    (Gaussian-class states); raises NotDecayed otherwise.  Integration is
    restricted to the inscribed disk |b| <= radius, and the radius should
    stay below ~6.5: the bilinear form cancels roughly 10^(0.33*|b|^2) of
    dynamic range against the e^{|b|^2} growth, so float64 evaluations
    degrade beyond that even when the cutoff holds the coherent tail.
    """
    alpha = complex(alpha)
    tail = _coherent_tail_mass(grid.radius, rho.dim)
    if tail > 1e-6:
        raise TruncationLoss(
            f"coherent vectors at |b|={grid.radius} keep only {1 - tail:.8f} "
            f"of their mass at dim={rho.dim}"
        )

    def integrand(betas: np.ndarray) -> np.ndarray:
        betas = np.asarray(betas, dtype=np.complex128).ravel()
        # unnormalized monomial columns u_n = b^n / sqrt(n!); the product
        # conj(u(-b)) . rho . u(b) equals <-b|rho|b> e^{|b|^2} exactly, and
        # conj(u_n(-b)) = (-1)^n conj(u_n(b)), so u is reused as the left side.
        u = coherent_column_matrix(betas, rho.dim, normalized=False)
        right = rho.entries @ u
        left = np.conjugate(u, out=u)
        np.negative(left[1::2], out=left[1::2])
        kernel = np.einsum("nj,nj->j", left, right)
        phase = np.exp(betas.conj() * alpha - betas * alpha.conjugate())
        return kernel * phase

    nodes, weights = grid.nodes_weights()
    inside = np.abs(nodes) <= grid.radius
    vals = np.zeros(nodes.shape, dtype=np.complex128)
    vals[inside] = integrand(nodes[inside])
    interior_max = float(np.max(np.abs(vals)))
    circle = grid.radius * np.exp(2j * np.pi * np.arange(64) / 64)
    boundary_max = float(np.max(np.abs(integrand(circle))))
    if boundary_max > decay_tol * max(1.0, interior_max):
        raise NotDecayed(
            f"inversion integrand is {boundary_max:.3e} at |b|={grid.radius} "
            f"(interior max {interior_max:.3e}); the P-function is too singular"
        )
    return complex(math.exp(abs(alpha) ** 2) * (weights * vals).sum() / np.pi)


def diffusion_pde_residual(
    z: complex,
    tau_list,
    grid: ComplexGrid,
    h: float,
) -> float:
    """Max | dP/dtau - d2P/(da da*) | of the evolved coherent P-function,
    by central differences of step h, over alpha on the grid translated to
    z and every tau in tau_list.

    In units where the channel time absorbs the diffusion constant the
    classical PDE reads dP/dtau = d2P/(da da*), and the mixed derivative is
    a quarter of the (Re a, Im a) Laplacian, realized with the 5-point
    stencil.  The tau derivative uses the 5-point fourth-order central
    stencil: the P-function is much stiffer in tau than in alpha (third
    derivative ~ 6/tau^4 at the peak), and the higher-order stencil keeps
    the residual dominated by the second-order spatial error.
    """
    if h <= 0 or h > 1e-2:
        raise ValueError(f"step h must lie in (0, 1e-2], got {h}")
    taus = [float(t) for t in np.atleast_1d(tau_list)]
    for tau in taus:
        if tau - 2.0 * h <= 0:
            raise StencilOutOfRange(f"tau={tau} leaves no room for a stencil of step {h}")
    nodes, _ = grid.nodes_weights()
    alphas = complex(z) + nodes
    worst = 0.0
    for tau in taus:
        dp_dtau = (
            -p_coherent_evolved(alphas, z, tau + 2 * h)
            + 8.0 * p_coherent_evolved(alphas, z, tau + h)
            - 8.0 * p_coherent_evolved(alphas, z, tau - h)
            + p_coherent_evolved(alphas, z, tau - 2 * h)
        ) / (12.0 * h)
        center = p_coherent_evolved(alphas, z, tau)
        lap = (
            p_coherent_evolved(alphas + h, z, tau)
            + p_coherent_evolved(alphas - h, z, tau)
            + p_coherent_evolved(alphas + 1j * h, z, tau)
            + p_coherent_evolved(alphas - 1j * h, z, tau)
            - 4.0 * center
        ) / (h * h)
        residual = float(np.max(np.abs(dp_dtau - 0.25 * lap)))
        worst = max(worst, residual)
    return worst


def diffusion_pde_residual_analytic(z: complex, tau: float, grid: ComplexGrid) -> float:
    """Same residual with both sides evaluated from their closed forms.

    dP/dtau      = P * (|z-a|^2 / tau^2 - 1/tau)
    d2P/(da da*) = P * (|z-a|^2 - tau) / tau^2
    """
    if tau <= 0:
        raise ZeroTime("analytic residual needs tau > 0")
    nodes, _ = grid.nodes_weights()
    alphas = complex(z) + nodes
    p = p_coherent_evolved(alphas, z, tau)
    r2 = np.abs(complex(z) - alphas) ** 2
    lhs = p * (r2 / tau**2 - 1.0 / tau)
    rhs = p * (r2 - tau) / tau**2
    return float(np.max(np.abs(lhs - rhs)))


def _unnormalized_projector(a: complex, b: complex, dim: int) -> np.ndarray:
    """exp(-a b) exp(a A')|0><0|exp(b A) with a, b independent complex variables.

    At b = conj(a) this is the coherent projector |a><a|; differentiating in
    a alone (b held fixed) realizes d/da with a* treated as constant.
    """
    col = coherent_column_matrix(a, dim, normalized=False)
    row = coherent_column_matrix(b, dim, normalized=False)
    return np.exp(-a * b) * np.outer(col, row)


def coherent_derivative_identity_residual(
    alpha: complex,
    dim: int,
    h: float,
    which: str = "raising",
) -> float:
    """Finite-difference residual of the derivative identities for |a><a|.

    which="raising":  a'|a><a|   = (a* + d/da) |a><a|
    which="lowering": |a><a| a   = (a  + d/da*) |a><a|
    which="combined": a'a R - a' R a - a R a' + R a a' = -d2 R/(da da*)
    with R = |a><a| and d/da, d/da* the independent-variable derivatives.

    The combined residual is measured on indices 0..dim-2: the a a' factor
    is wrong in its last diagonal entry under truncation (the same artifact
    the ladder-commutator block identity carries), which corrupts exactly
    the last row and column of the combination.
    """
    if which not in ("raising", "lowering", "combined"):
        raise ValueError(f"unknown identity {which!r}")
    if h <= 0 or h > 1e-3:
        raise ValueError(f"step h must lie in (0, 1e-3], got {h}")
    a = complex(alpha)
    b = a.conjugate()
    ann = annihilation_matrix(dim)
    cre = ann.conj().T
    proj = _unnormalized_projector(a, b, dim)

    if which == "raising":
        deriv = (
            _unnormalized_projector(a + h, b, dim) - _unnormalized_projector(a - h, b, dim)
        ) / (2.0 * h)
        lhs = cre @ proj
        rhs = b * proj + deriv
    elif which == "lowering":
        deriv = (
            _unnormalized_projector(a, b + h, dim) - _unnormalized_projector(a, b - h, dim)
        ) / (2.0 * h)
        lhs = proj @ ann
        rhs = a * proj + deriv
    else:
        mixed = (
            _unnormalized_projector(a + h, b + h, dim)
            - _unnormalized_projector(a + h, b - h, dim)
            - _unnormalized_projector(a - h, b + h, dim)
            + _unnormalized_projector(a - h, b - h, dim)
        ) / (4.0 * h * h)
        lhs = cre @ ann @ proj - cre @ proj @ ann - ann @ proj @ cre + proj @ ann @ cre
        rhs = -mixed
        return float(np.max(np.abs(lhs[: dim - 1, : dim - 1] - rhs[: dim - 1, : dim - 1])))
    return float(np.max(np.abs(lhs - rhs)))
