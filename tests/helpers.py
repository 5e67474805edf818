"""Independent oracles shared by the tests.

Everything here is deliberately naive (exact rational sums, direct tensor
quadrature, singular values for the trace norm) so the package under test
never validates itself against its own code paths.
"""

import math
from fractions import Fraction

import numpy as np


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
