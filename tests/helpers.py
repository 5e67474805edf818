"""Independent oracles shared by the tests.

Everything here is deliberately naive (exact rational sums, direct tensor
quadrature, singular values for the trace norm, one dense kernel per
quadrature node) so the package under test never validates itself against
its own code paths.
"""

import math
from fractions import Fraction

import numpy as np

from qdiffusion.fock import coherent_column_matrix, ordered_gaussian_kernel


def brute_laguerre(l: int, x: complex) -> complex:
    """L_l(x) as the literal binomial sum with exact rational coefficients."""
    total = 0j
    for k in range(l + 1):
        coeff = Fraction(math.comb(l, l - k), math.factorial(k))
        total += float(coeff) * (-x) ** k
    return total


def brute_hermite2(m: int, n: int, x: complex, y: complex) -> complex:
    """H_{m,n}(x, y) as the literal double-factorial sum."""
    total = 0j
    for l in range(min(m, n) + 1):
        coeff = Fraction(
            math.factorial(m) * math.factorial(n) * (-1) ** l,
            math.factorial(l) * math.factorial(m - l) * math.factorial(n - l),
        )
        total += float(coeff) * x ** (m - l) * y ** (n - l)
    return total


def brute_quadrature(f, radius: float, points: int) -> complex:
    """Plain Gauss-Legendre tensor integral of f over the square, with 1/pi."""
    x, w = np.polynomial.legendre.leggauss(points)
    x = x * radius
    w = w * radius
    nodes = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w[:, None] * w[None, :]).ravel()
    return complex((weights * f(nodes)).sum() / np.pi)


def dense_ladder(dim: int) -> np.ndarray:
    """Truncated annihilation matrix built directly: A[n-1, n] = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def scalar_exp_quadratic_raising(c: float, dim: int) -> np.ndarray:
    """exp(c a'^2) entry by entry, column by column, in complex scalars:
    E[j+2k, j] = E[j+2k-2, j] * c * sqrt((j+2k)(j+2k-1)) / k."""
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


def hermitian_kernel_entry(i: int, j: int, mu: complex, tau: float) -> complex:
    """Entry [i, j] of :exp[-a'a/(tau+1) + mu a' + conj(mu) a]: as the scalar
    sum (mu/|mu|)^(i-j) sum_k |mu|^(i+j-2k) d^k sqrt(i! j!) / (k! (i-k)! (j-k)!)
    with d = tau/(tau+1).  Every term is positive, so each is formed from
    log-gammas and the terms are summed with math.fsum, which rounds once."""
    r = abs(mu)
    phase = (mu / r) ** (i - j) if r else 1.0
    half = 0.5 * (math.lgamma(i + 1) + math.lgamma(j + 1))
    terms = []
    for k in range(min(i, j) + 1):
        power = i + j - 2 * k
        if power and not r:
            continue
        log_term = (
            (power * math.log(r) if power else 0.0)
            + k * math.log(tau / (tau + 1.0))
            + half
            - math.lgamma(k + 1)
            - math.lgamma(i - k + 1)
            - math.lgamma(j - k + 1)
        )
        terms.append(math.exp(log_term))
    return math.fsum(terms) * phase


def dense_kraus(m: int, n: int, tau: float, dim: int) -> np.ndarray:
    """M_{m,n} as the literal product pref a'^m (1+tau)^(-a'a) a^n of dense
    matrix powers."""
    a = dense_ladder(dim)
    pref = math.sqrt(
        tau ** (m + n) / (math.factorial(m) * math.factorial(n) * (tau + 1) ** (m + n + 1))
    )
    damp = np.diag((1.0 / (1.0 + tau)) ** np.arange(dim))
    return pref * np.linalg.matrix_power(a.T, m) @ damp @ np.linalg.matrix_power(a, n)


def exact_truncated_evolution(rho: np.ndarray, tau: float) -> np.ndarray:
    """exp(tau L) rho for the truncated Lindblad generator
    L(x) = a' x a + a x a' - h x - x h, h = (a'a + aa')/2.

    L maps each diagonal offset d to itself; on the entries x[i, i+d] (and
    x[i+d, i]) it is the real symmetric tridiagonal matrix with diagonal
    -(h_i + h_(i+d)) and off-diagonals sqrt(i+1) sqrt(i+1+d), so one eigh per
    offset gives the exact propagator.
    """
    dim = rho.shape[0]
    a = dense_ladder(dim)
    h = np.diag(0.5 * (a.T @ a + a @ a.T))
    out = np.zeros_like(rho)
    for d in range(dim):
        i = np.arange(dim - d)
        off = np.sqrt(i[1:]) * np.sqrt(i[1:] + d)
        gen = np.diag(-(h[i] + h[i + d])) + np.diag(off, 1) + np.diag(off, -1)
        w, v = np.linalg.eigh(gen)
        prop = (v * np.exp(tau * w)) @ v.T
        out[i, i + d] = prop @ rho[i, i + d]
        out[i + d, i] = prop @ rho[i + d, i]
    return out


def trace_norm_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm via singular values (independent of eigvalsh)."""
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())


def per_node_p_integral(p, tau: float, grid, dim: int) -> np.ndarray:
    """Integral-form solution 1 on one grid as the literal node sum
    sum_j c_j :exp[-a'a/(tau+1) + (a_j a' + a_j* a)/(1+tau)]:, one dense ordered
    kernel per node, with c_j = w_j P(a_j) e^{-|a_j|^2/(tau+1)} / ((tau+1) pi)."""
    nodes, weights = grid.nodes_weights()
    pvals = np.asarray(p(nodes), dtype=np.complex128)
    envelope = np.exp(-np.abs(nodes) ** 2 / (tau + 1.0)) / (tau + 1.0)
    coeff = weights * pvals * envelope / np.pi
    out = np.zeros((dim, dim), dtype=np.complex128)
    for c, alpha in zip(coeff, nodes):
        mu = alpha / (1.0 + tau)
        out += c * ordered_gaussian_kernel(-1.0 / (tau + 1.0), mu, np.conjugate(mu), dim)
    return out


def einsum_mehta(rho: np.ndarray, alpha: complex, grid) -> complex:
    """The Mehta inversion e^{|a|^2} int_{|b| <= radius} d2b/pi
    conj(u(-b)) rho u(b) e^{b* a - b a*} with both monomial column sets built
    by their own recurrence and contracted in one three-operand einsum."""
    nodes, weights = grid.nodes_weights()
    inside = np.abs(nodes) <= grid.radius
    betas, weights = nodes[inside], weights[inside]
    dim = rho.shape[0]
    u = coherent_column_matrix(betas, dim, normalized=False)
    left = coherent_column_matrix(-betas.conj(), dim, normalized=False)
    kernel = np.einsum("nj,nm,mj->j", left, rho, u)
    phase = np.exp(betas.conj() * alpha - betas * np.conjugate(alpha))
    return complex(math.exp(abs(alpha) ** 2) * (weights * kernel * phase).sum() / np.pi)
