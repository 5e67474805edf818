"""The single-mode diffusion channel.

Realizations of the same completely positive map, parameterized by the
dimensionless channel time tau >= 0:

* ``kraus_evolve``             -- the operator-sum over M_{m,n}
* ``coherent_output`` /
  ``number_output`` /
  ``squeezed_output``          -- closed-form evolved states
* ``evolve_via_p_integral``    -- P-function integral transform (solution 1)
* ``evolve_via_husimi_integral`` -- cross-element integral transform
  (solution 2), evaluated through the Gaussian formulas by analytic
  continuation: its b-integral carries a Gaussian coefficient (tau+1)/tau > 0
  and is never amenable to raw quadrature.

The delta P-integral and the cross-element route end in the same normally
ordered expressions as the closed forms, so their agreement checks the
algebra that leads there, not independent arithmetic; the Kraus sum is
independent of the closed forms.

tau = 0 is the identity channel everywhere; no route evaluates 1/tau there.
"""

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    NumberExceedsCutoff,
    SignResolutionFailed,
    TruncationLoss,
    UnsupportedInput,
    ZeroTimeNontrivialIndex,
)
from .fock import (
    DensityMatrix,
    StateSpec,
    coherent_gram,
    density_from_vector,
    ladder_diagonal,
    ordered_gaussian_kernel,
    quadratic_kernel,
    state_vector,
)
from .oracle import ComplexGrid
from .phase_space import PFunctionAnalytic, integrate_with_refinement
from .special import moment_term_coefficients

#: outputs whose trace falls below this are rejected as truncation losses
TRACE_FLOOR = 0.999

#: sign resolution accepts a trace within this distance of 1
SIGN_TRACE_TOL = 1e-3

#: the squeezed closed form refuses |squeeze| above this for cutoff adequacy
MAX_SQUEEZE = 2.0


def _validate_tau(tau: float) -> float:
    tau = float(tau)
    if tau < 0:
        raise ValueError(f"channel time tau must be >= 0, got {tau}")
    return tau


def default_kraus_max_index(tau: float, dim: int) -> int:
    """Default truncation order M = ceil(10 tau/(tau+1) sqrt(dim)) + 8."""
    tau = _validate_tau(tau)
    return int(math.ceil(10.0 * tau / (tau + 1.0) * math.sqrt(dim))) + 8


def _kraus_band(m: int, n: int, tau: float, dim: int) -> np.ndarray:
    """The one nonzero band of M_{m,n}: for 0 <= k < dim - max(m, n), entry
    (k+m, k+n) is pref (1+tau)^-k sqrt((k+m)!/k!) sqrt((k+n)!/k!), taken as
    sqrt(r_m r_n / (1+tau)) (1+tau)^-k with the running products
    r_p = prod_{i=1..p} tau (k+i) / (i (1+tau)), so no factorial is formed."""
    k = np.arange(dim - max(m, n), dtype=np.float64)

    def ratio(p: int) -> np.ndarray:
        r = np.ones_like(k)
        for i in range(1, p + 1):
            r *= tau * (k + i) / (i * (1.0 + tau))
        return r

    return np.sqrt(ratio(m) * ratio(n) / (1.0 + tau)) * (1.0 + tau) ** -k


def kraus_operator(m: int, n: int, tau: float, dim: int) -> np.ndarray:
    """M_{m,n} = sqrt(tau^(m+n) / (m! n! (tau+1)^(m+n+1)))
    a'^m (1/(1+tau))^(a'a) a^n on the truncated basis."""
    tau = _validate_tau(tau)
    if m < 0 or n < 0:
        raise ValueError("Kraus indices must be nonnegative")
    if tau == 0:
        if (m, n) != (0, 0):
            raise ZeroTimeNontrivialIndex(
                f"at tau=0 only M_00 exists; requested ({m}, {n})"
            )
        return np.eye(dim, dtype=np.complex128)
    op = np.zeros((dim, dim), dtype=np.complex128)
    band = _kraus_band(m, n, tau, dim)
    k = np.arange(band.size)
    op[k + m, k + n] = band
    return op


def _loss_bands(tau: float, max_index: int, dim: int) -> list:
    """Bands of the pure-loss operators B_n = c_n (1+tau)^(-a'a/2) a^n,
    c_n = sqrt(tau^n / (n! (1+tau)^(n+1/2))), for n <= max_index.

    B_n[k, k+n] = b_n[k] for k < dim - n is the only nonzero entry per row, with
    b_0[k] = (1+tau)^(-1/4-k/2) and b_n[k] = b_{n-1}[k] sqrt(tau (k+n) / (n (1+tau))).
    Each b_n[k]^2 is (1+tau)^(-1/2) times a negative-binomial probability, so
    no order overflows.
    """
    k = np.arange(dim, dtype=np.float64)
    bands = [(1.0 + tau) ** (-0.25 - 0.5 * k)]
    for n in range(1, max_index + 1):
        size = dim - n
        bands.append(bands[-1][:size] * np.sqrt(tau * (k[:size] + n) / (n * (1.0 + tau))))
    return bands


@dataclass(frozen=True)
class KrausSet:
    """The Kraus operators M_{m,n} = B_m' B_n (m, n <= max_index) at one tau,
    stored as the single bands of the loss operators B_n, plus the diagonal
    of their gram sum (its only nonzero entries)."""

    tau: float
    max_index: int
    dim: int
    bands: tuple  # bands[n][k] = B_n[k, k+n], length dim - n
    gram: np.ndarray  # diagonal of sum M' M, length dim

    def __post_init__(self):
        for band in self.bands:
            band.setflags(write=False)
        self.gram.setflags(write=False)

    def operator(self, m: int, n: int) -> np.ndarray:
        """The dense matrix M_{m,n} = B_m' B_n on the truncated basis."""
        if not (0 <= m <= self.max_index and 0 <= n <= self.max_index):
            raise ValueError(f"Kraus indices must lie in [0, {self.max_index}], got ({m}, {n})")
        size = self.dim - max(m, n)
        k = np.arange(size)
        op = np.zeros((self.dim, self.dim), dtype=np.complex128)
        op[k + m, k + n] = self.bands[m][:size] * self.bands[n][:size]
        return op


def build_kraus_set(tau: float, max_index: int, dim: int) -> KrausSet:
    """The loss bands b_0..b_M (M = max_index; M = 0 at tau = 0, where the
    only band is 1) and the diagonal gram sum of every M_{m,n} with m, n <= M."""
    tau = _validate_tau(tau)
    if tau == 0:
        max_index = 0
    elif max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    elif dim <= max_index:
        raise CutoffTooSmall(f"dim={dim} must exceed max_index={max_index}")

    bands = _loss_bands(tau, max_index, dim)
    # sum M'M = sum_n B_n' (sum_m B_m B_m') B_n, and both factors are diagonal
    gain = np.zeros(dim)
    for band in bands:
        gain[: band.size] += band**2
    gram = np.zeros(dim)
    for n, band in enumerate(bands):
        gram[n:] += band**2 * gain[: band.size]
    return KrausSet(tau=tau, max_index=max_index, dim=dim, bands=tuple(bands), gram=gram)


def completeness_residual(ks: KrausSet, block: int = None) -> float:
    """Max-norm deviation of sum M'M from identity on the leading block.

    The default block is dim - max_index, the largest region the truncated
    operators represent exactly; callers may restrict further.
    """
    if block is None:
        block = ks.dim - ks.max_index
    block = max(1, min(block, ks.dim))
    return float(np.max(np.abs(ks.gram[:block] - 1.0)))


def kraus_evolve(rho0: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Operator sum rho(t) = sum_{m,n} M_{m,n} rho0 M_{m,n}', taken as the
    loss sum sigma = sum_n B_n rho0 B_n' followed by the gain sum
    rho(t) = sum_m B_m' sigma B_m; each term is one shifted elementwise product."""
    if rho0.dim != ks.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != Kraus dim {ks.dim}")
    dim, rho = ks.dim, rho0.entries
    lost = np.zeros_like(rho)
    for n, band in enumerate(ks.bands):
        lost[: dim - n, : dim - n] += np.outer(band, band) * rho[n:, n:]
    out = np.zeros_like(rho)
    for m, band in enumerate(ks.bands):
        out[m:, m:] += np.outer(band, band) * lost[: dim - m, : dim - m]
    return DensityMatrix(out, label="kraus")


def _check_trace(mat: np.ndarray, route: str) -> None:
    tr = float(np.trace(mat).real)
    if not math.isfinite(tr):
        raise FloatingPointError(f"{route} output trace is {tr}")
    if tr < TRACE_FLOOR:
        raise TruncationLoss(f"{route} output trace {tr:.6f} < {TRACE_FLOOR}; cutoff too small")


def coherent_output(z: complex, tau: float, dim: int) -> DensityMatrix:
    """Closed-form diffused coherent state
    (1/(tau+1)) e^{-|z|^2/(tau+1)}
        e^{z a'/(1+tau)} (tau/(tau+1))^(a'a) e^{z* a/(1+tau)}.
    """
    tau = _validate_tau(tau)
    z = complex(z)
    if tau == 0:
        return density_from_vector(
            state_vector(StateSpec.coherent(z), dim), label="closed_form"
        )
    kernel = ordered_gaussian_kernel(
        lam=-1.0 / (tau + 1.0),
        mu=z / (1.0 + tau),
        nu=z.conjugate() / (1.0 + tau),
        dim=dim,
    )
    rho = (math.exp(-abs(z) ** 2 / (tau + 1.0)) / (tau + 1.0)) * kernel
    _check_trace(rho, "coherent closed form")
    return DensityMatrix(rho, label="closed_form")


def number_output(l: int, tau: float, dim: int) -> DensityMatrix:
    """Closed-form diffused number state: the Laguerre-weighted chaotic state
    (tau^l/(tau+1)^(l+1)) :L_l(-a'a / (tau(tau+1))) e^{-a'a/(tau+1)}:.

    Inside normal ordering (a'a)^k becomes a'^k a^k, so the state is the sum
    sum_k C(l,k)/k! (tau(tau+1))^-k  a'^k (tau/(tau+1))^(a'a) a^k, diagonal
    in the Fock basis.
    """
    tau = _validate_tau(tau)
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l >= dim / 2:
        raise NumberExceedsCutoff(f"need l < dim/2 for a faithful output; l={l}, dim={dim}")
    if tau == 0:
        return density_from_vector(
            state_vector(StateSpec.number(l), dim), label="closed_form"
        )
    thermal = (tau / (tau + 1.0)) ** np.arange(dim)
    diag = np.zeros(dim)
    with np.errstate(invalid="raise"):  # an overflowed coeff times 0 (tau ~ 5e-324)
        for k in range(l + 1):
            coeff = math.comb(l, k) / math.factorial(k) / (tau * (tau + 1.0)) ** k
            diag += coeff * ladder_diagonal(thermal, k)
    rho = np.diag((tau**l / (tau + 1.0) ** (l + 1)) * diag).astype(np.complex128)
    _check_trace(rho, "number closed form")
    return DensityMatrix(rho, label="closed_form")


def _unit_trace_sign(trace: float, context: str) -> int:
    """The sign s in {+1, -1} with s * trace within SIGN_TRACE_TOL of 1."""
    plus_ok = abs(trace - 1.0) <= SIGN_TRACE_TOL
    minus_ok = abs(-trace - 1.0) <= SIGN_TRACE_TOL
    if plus_ok == minus_ok:
        raise SignResolutionFailed(
            f"{context}: unsigned trace {trace:.6f} admits no unique sign"
        )
    return 1 if plus_ok else -1


def _signed_squeezed_body(lambda_: float, tau: float, dim: int) -> tuple:
    """(sign, body) of the squeezed output: the unsigned body sech(r)/sqrt(G)
    e^{(tanh r/2G) a'^2} (1 + c)^(a'a) e^{(tanh r/2G) a^2}
    with G = (tau+1)^2 - tau^2 tanh^2 r and c = (tau+1)/(G tau) - 1/tau,
    and the one sign that gives it unit trace."""
    th = math.tanh(lambda_)
    big_g = (tau + 1.0) ** 2 - tau**2 * th**2
    c = (tau + 1.0) / (big_g * tau) - 1.0 / tau
    kernel = quadratic_kernel(th / (2.0 * big_g), 1.0 + c, dim)
    body = (1.0 / math.cosh(lambda_)) / math.sqrt(big_g) * kernel
    sign = _unit_trace_sign(
        float(np.trace(body).real),
        f"squeezed closed form at lambda={lambda_}, tau={tau}, dim={dim}",
    )
    return sign, body


def resolve_squeezed_sign(lambda_: float, tau: float, dim: int) -> int:
    """Overall sign making the squeezed closed form a unit-trace state.

    The continuation branch behind the closed form leaves the overall sign
    undetermined; exactly one choice yields Tr rho = 1.
    """
    tau = _validate_tau(tau)
    if tau == 0:
        return 1
    return _signed_squeezed_body(lambda_, tau, dim)[0]


def squeezed_output(lambda_: float, tau: float, dim: int) -> DensityMatrix:
    """Closed-form diffused squeezed vacuum (a squeezed thermal state)."""
    tau = _validate_tau(tau)
    lambda_ = float(lambda_)
    if abs(lambda_) > MAX_SQUEEZE:
        raise ValueError(f"|lambda| must be <= {MAX_SQUEEZE} for cutoff adequacy, got {lambda_}")
    if tau == 0:
        return density_from_vector(
            state_vector(StateSpec.squeezed_vacuum(lambda_), dim), label="closed_form"
        )
    sign, body = _signed_squeezed_body(lambda_, tau, dim)
    rho = sign * body
    _check_trace(rho, "squeezed closed form")
    return DensityMatrix(rho, label="closed_form")


def evolve_via_p_integral(
    p_rep: Union[PFunctionAnalytic, Callable[[np.ndarray], np.ndarray]],
    tau: float,
    grid: ComplexGrid,
    dim: int,
    check_convergence: bool = True,
) -> DensityMatrix:
    """Integral-form solution 1:
    rho(t) = (1/(tau+1)) int d2a/pi e^{-|a|^2/(tau+1)} P(a, 0) K(a)
    with K(a) = :exp[-a'a/(tau+1) + (a a' + a* a)/(1+tau)]: the ordered
    Gaussian kernel of the channel.

    Delta P-functions bypass quadrature (the integrand is evaluated at the
    spike).  Gaussian or grid-sampled P-functions are integrated on the grid
    by moments: with d = tau/(tau+1), mu = a/(1+tau) and u = |mu> the
    normalized coherent column, the kernel expands as
      K(a)[i, j] = e^{|mu|^2} sum_k d^k sqrt(C(i,k) C(j,k)) u_{i-k} conj(u_{j-k}),
    so the node sum is one weighted coherent Gram S = sum c u u' (with
    e^{|mu|^2} folded into c, which leaves the decaying e^{-|a|^2 tau/(tau+1)^2})
    followed by the shift sum rho[k:, k:] += outer(b_k, b_k) S[:dim-k, :dim-k],
    b_k[m] = sqrt(d^k C(m+k, k)).  At tau = 0 only k = 0 survives, mu = a, and
    the route is the forward P transform of its input.
    """
    tau = _validate_tau(tau)
    if isinstance(p_rep, PFunctionAnalytic) and p_rep.kind == "delta":
        z = p_rep.center
        kernel = ordered_gaussian_kernel(
            lam=-1.0 / (tau + 1.0),
            mu=z / (1.0 + tau),
            nu=np.conjugate(z) / (1.0 + tau),
            dim=dim,
        )
        rho = (math.exp(-abs(z) ** 2 / (tau + 1.0)) / (tau + 1.0)) * kernel
        _check_trace(rho, "p-integral (delta)")
        return DensityMatrix(rho, label="p_integral")

    d = tau / (tau + 1.0)

    def assemble(g: ComplexGrid) -> np.ndarray:
        nodes, weights = g.nodes_weights()
        pvals = np.asarray(p_rep(nodes), dtype=np.complex128)
        envelope = np.exp(-np.abs(nodes) ** 2 * (tau / (tau + 1.0) ** 2)) / (tau + 1.0)
        gram = coherent_gram(nodes / (1.0 + tau), weights * pvals * envelope / np.pi, dim)
        out = gram.copy()
        # b_k[m] = b_{k-1}[m+1] sqrt(d (m+1)/k), since C(m+k, k) = C(m+k, k-1) (m+1)/k
        band = np.ones(dim)
        for k in range(1, dim):
            band = band[1:] * np.sqrt(d * np.arange(1, dim - k + 1) / k)
            out[k:, k:] += np.outer(band, band) * gram[: dim - k, : dim - k]
        return out

    rho = integrate_with_refinement(assemble, grid, check_convergence)
    _check_trace(rho, "p-integral")
    return DensityMatrix(rho, label="p_integral")


def _require_matching_state(rho0: DensityMatrix, spec: StateSpec, dim: int) -> None:
    if rho0.dim != dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != requested dim {dim}")
    expected = density_from_vector(state_vector(spec, dim))
    if float(np.max(np.abs(rho0.entries - expected.entries))) > 1e-8:
        raise UnsupportedInput(
            "the cross-element route only evaluates coherent, number, or "
            "squeezed-vacuum projectors, and rho0 does not match the spec"
        )


def evolve_via_husimi_integral(
    rho0: DensityMatrix,
    spec: StateSpec,
    tau: float,
    dim: int,
) -> DensityMatrix:
    """Integral-form solution 2, driven by the cross element <-b|rho0|b>.

    The b-integral has Gaussian coefficient zeta = (tau+1)/tau > 0, so it is
    evaluated exclusively through the Gaussian integral formulas in analytic
    continuation, with the ladder operators carried as commuting symbols
    inside normal ordering:

      coherent:  one zeroth-moment term; the continued exponential factor
                 reassembles the coherent closed form.
      number l:  the kernel (-1)^l |b|^(2l) e^{-|b|^2}/l! contributes an
                 l,l moment sum whose terms become a'^(l-k) ... a^(l-k).
      squeezed:  the kernel of the squeezed projector feeds the quadratic
                 Gaussian formula; the square-root branch is fixed by the
                 unit-trace rule, exactly as for the closed form.
    """
    tau = _validate_tau(tau)
    _require_matching_state(rho0, spec, dim)
    if tau == 0:
        return DensityMatrix(rho0.entries.copy(), label="husimi_integral")

    zeta = (tau + 1.0) / tau
    # operator symbols: the b coefficient is xi = a'/tau (+ scalar part),
    # the b* coefficient is eta = -a/tau (+ scalar part)
    xi_op = 1.0 / tau
    eta_op = -1.0 / tau

    if spec.kind == "coherent":
        z = complex(spec.z)
        xi0 = z.conjugate()
        eta0 = -z
        # e^{-xi eta / zeta} with xi = xi0 + xi_op a', eta = eta0 + eta_op a
        lam = -(xi_op * eta_op) / zeta - 1.0 / tau  # a'a coefficient, with -a'a/tau
        mu = -(xi_op * eta0) / zeta
        nu = -(xi0 * eta_op) / zeta
        scalar = math.exp((-(xi0 * eta0) / zeta).real)
        k0_coeff = 1.0 / (-zeta)  # zeroth moment term of the continued formula
        pref = (-1.0 / tau) * math.exp(-abs(z) ** 2) * scalar * k0_coeff
        rho = pref * ordered_gaussian_kernel(lam, mu, nu, dim)

    elif spec.kind == "number":
        l = spec.l
        lam = -(xi_op * eta_op) / zeta - 1.0 / tau
        # the diagonal of :exp(lam a'a): = (1+lam)^(a'a); an overflowed lam
        # (tau ~ 1e-200) raises here instead of spreading NaNs
        with np.errstate(invalid="raise"):
            kernel0 = np.power(1.0 + complex(lam), np.arange(dim))
        pref = (-1.0 / tau) * (-1.0) ** l / math.factorial(l)
        diag = np.zeros(dim, dtype=np.complex128)
        for k, coeff in moment_term_coefficients(l, l, zeta):
            p = l - k
            diag += coeff * (xi_op**p) * (eta_op**p) * ladder_diagonal(kernel0, p)
        rho = np.diag(pref * diag)

    else:  # squeezed_vacuum
        th = math.tanh(spec.squeeze)
        f = th / 2.0
        g = th / 2.0
        denom = zeta * zeta - 4.0 * f * g
        lam = zeta * (xi_op * eta_op) * (-1.0) / denom - 1.0 / tau
        # -zeta xi eta / denom with xi eta = xi_op eta_op a'a gives the a'a
        # coefficient; f eta^2 and g xi^2 give the a^2 and a'^2 coefficients,
        # which are equal because f = g and eta_op^2 = xi_op^2
        body = quadratic_kernel(g * xi_op**2 / denom, 1.0 + lam, dim)
        unsigned = (1.0 / math.cosh(spec.squeeze) / tau) * body / math.sqrt(denom)
        sign = _unit_trace_sign(float(np.trace(unsigned).real), "cross-element route")
        rho = sign * unsigned

    _check_trace(rho, "cross-element route")
    return DensityMatrix(rho, label="husimi_integral")
