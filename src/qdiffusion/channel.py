"""The single-mode diffusion channel.

Four independent realizations of the same completely positive map,
parameterized by the dimensionless channel time tau >= 0:

* ``kraus_evolve``             -- the operator-sum over M_{m,n}
* ``coherent_output`` /
  ``number_output`` /
  ``squeezed_output``          -- closed-form evolved states
* ``evolve_via_p_integral``    -- P-function integral transform (solution 1)
* ``evolve_via_husimi_integral`` -- cross-element integral transform
  (solution 2), evaluated through the Gaussian formulas by analytic
  continuation: its b-integral carries a Gaussian coefficient (tau+1)/tau > 0
  and is never amenable to raw quadrature.

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
    _exp_quadratic_raising,
    density_from_vector,
    ladder_diagonal,
    ordered_gaussian_kernel,
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
    (k+m, k+n) is pref (1+tau)^-k sqrt((k+m)!/k!) sqrt((k+n)!/k!), the ladder
    factors taken as products of sqrt(k+i)."""
    pref = math.sqrt(
        tau ** (m + n)
        / (math.factorial(m) * math.factorial(n) * (tau + 1.0) ** (m + n + 1))
    )
    k = np.arange(dim - max(m, n))

    def rise(p: int) -> np.ndarray:
        return np.sqrt(k[:, None] + np.arange(1, p + 1)).prod(axis=1)

    return pref * (1.0 / (1.0 + tau)) ** k * rise(m) * rise(n)


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


@dataclass(frozen=True)
class KrausSet:
    """All (max_index+1)^2 Kraus matrices at one tau, plus their gram sum."""

    tau: float
    max_index: int
    dim: int
    operators: np.ndarray  # shape (max_index+1, max_index+1, dim, dim)
    gram: np.ndarray  # sum of M' M, shape (dim, dim)

    def __post_init__(self):
        self.operators.setflags(write=False)
        self.gram.setflags(write=False)


def build_kraus_set(tau: float, max_index: int, dim: int) -> KrausSet:
    """Materialize every M_{m,n} for m, n <= max_index and their gram sum."""
    tau = _validate_tau(tau)
    if tau == 0:
        eye = np.eye(dim, dtype=np.complex128)
        return KrausSet(
            tau=0.0, max_index=0, dim=dim,
            operators=eye.reshape(1, 1, dim, dim).copy(),
            gram=eye.copy(),
        )
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    if dim <= max_index:
        raise CutoffTooSmall(f"dim={dim} must exceed max_index={max_index}")

    ops = np.zeros((max_index + 1, max_index + 1, dim, dim), dtype=np.complex128)
    # each column of M_{m,n} has one entry, so sum M'M is diagonal
    gram_diag = np.zeros(dim)
    for m in range(max_index + 1):
        for n in range(max_index + 1):
            band = _kraus_band(m, n, tau, dim)
            k = np.arange(band.size)
            ops[m, n, k + m, k + n] = band
            gram_diag[k + n] += band**2
    gram = np.diag(gram_diag.astype(np.complex128))
    return KrausSet(tau=tau, max_index=max_index, dim=dim, operators=ops, gram=gram)


def completeness_residual(ks: KrausSet, block: int = None) -> float:
    """Max-norm deviation of sum M'M from identity on the leading block.

    The default block is dim - max_index, the largest region the truncated
    operators represent exactly; callers may restrict further.
    """
    if block is None:
        block = ks.dim - ks.max_index
    block = max(1, min(block, ks.dim))
    delta = ks.gram[:block, :block] - np.eye(block)
    return float(np.max(np.abs(delta)))


def kraus_evolve(rho0: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Operator sum rho(t) = sum_{m,n} M_{m,n} rho0 M_{m,n}'."""
    if rho0.dim != ks.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != Kraus dim {ks.dim}")
    out = np.zeros_like(rho0.entries)
    for m in range(ks.max_index + 1):
        for n in range(ks.max_index + 1):
            op = ks.operators[m, n]
            out += op @ rho0.entries @ op.conj().T
    return DensityMatrix(out, label="kraus")


def _check_trace(mat: np.ndarray, route: str) -> None:
    tr = float(np.trace(mat).real)
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
    for k in range(l + 1):
        coeff = math.comb(l, k) / math.factorial(k) / (tau * (tau + 1.0)) ** k
        diag += coeff * ladder_diagonal(thermal, k)
    rho = np.diag((tau**l / (tau + 1.0) ** (l + 1)) * diag).astype(np.complex128)
    _check_trace(rho, "number closed form")
    return DensityMatrix(rho, label="closed_form")


def _squeezed_body(lambda_: float, tau: float, dim: int) -> np.ndarray:
    """Unsigned squeezed output sech(r)/sqrt(G)
    e^{(tanh r/2G) a'^2} (1 + c)^(a'a) e^{(tanh r/2G) a^2}
    with G = (tau+1)^2 - tau^2 tanh^2 r and c = (tau+1)/(G tau) - 1/tau."""
    th = math.tanh(lambda_)
    big_g = (tau + 1.0) ** 2 - tau**2 * th**2
    c = (tau + 1.0) / (big_g * tau) - 1.0 / tau
    quad = th / (2.0 * big_g)
    up = _exp_quadratic_raising(quad, dim)
    diag = (1.0 + c) ** np.arange(dim)
    body = (up * diag[None, :]) @ up.T
    return (1.0 / math.cosh(lambda_)) / math.sqrt(big_g) * body


def _unit_trace_sign(trace: float, context: str) -> int:
    """The sign s in {+1, -1} with s * trace within SIGN_TRACE_TOL of 1."""
    plus_ok = abs(trace - 1.0) <= SIGN_TRACE_TOL
    minus_ok = abs(-trace - 1.0) <= SIGN_TRACE_TOL
    if plus_ok == minus_ok:
        raise SignResolutionFailed(
            f"{context}: unsigned trace {trace:.6f} admits no unique sign"
        )
    return 1 if plus_ok else -1


def resolve_squeezed_sign(lambda_: float, tau: float, dim: int) -> int:
    """Overall sign making the squeezed closed form a unit-trace state.

    The continuation branch behind the closed form leaves the overall sign
    undetermined; exactly one choice yields Tr rho = 1.
    """
    tau = _validate_tau(tau)
    if tau == 0:
        return 1
    tr = float(np.trace(_squeezed_body(lambda_, tau, dim)).real)
    return _unit_trace_sign(
        tr, f"squeezed closed form at lambda={lambda_}, tau={tau}, dim={dim}"
    )


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
    sign = resolve_squeezed_sign(lambda_, tau, dim)
    rho = sign * _squeezed_body(lambda_, tau, dim)
    _check_trace(rho, "squeezed closed form")
    return DensityMatrix(rho, label="closed_form")


def _diffusion_kernel(alpha: complex, tau: float, dim: int) -> np.ndarray:
    """Integrand kernel of integral-form solution 1 at phase-space point alpha:
    :exp[-a'a/(tau+1) + (alpha a' + alpha* a)/(1+tau)]:."""
    return ordered_gaussian_kernel(
        lam=-1.0 / (tau + 1.0),
        mu=alpha / (1.0 + tau),
        nu=np.conjugate(alpha) / (1.0 + tau),
        dim=dim,
    )


def evolve_via_p_integral(
    p_rep: Union[PFunctionAnalytic, Callable[[np.ndarray], np.ndarray]],
    tau: float,
    grid: ComplexGrid,
    dim: int,
    check_convergence: bool = True,
) -> DensityMatrix:
    """Integral-form solution 1:
    rho(t) = (1/(tau+1)) int d2a/pi e^{-|a|^2/(tau+1)} P(a, 0) K(a)
    with K the ordered Gaussian kernel of the channel.

    Delta P-functions bypass quadrature (the integrand is evaluated at the
    spike); Gaussian or grid-sampled P-functions are integrated on the grid.
    At tau = 0 the kernel degenerates to the coherent projector and the route
    reproduces the input exactly.
    """
    tau = _validate_tau(tau)
    if isinstance(p_rep, PFunctionAnalytic) and p_rep.kind == "delta":
        z = p_rep.center
        rho = (
            math.exp(-abs(z) ** 2 / (tau + 1.0)) / (tau + 1.0)
        ) * _diffusion_kernel(z, tau, dim)
        _check_trace(rho, "p-integral (delta)")
        return DensityMatrix(rho, label="p_integral")

    def assemble(g: ComplexGrid) -> np.ndarray:
        nodes, weights = g.nodes_weights()
        pvals = np.asarray(p_rep(nodes), dtype=np.complex128)
        envelope = np.exp(-np.abs(nodes) ** 2 / (tau + 1.0)) / (tau + 1.0)
        coeff = weights * pvals * envelope / np.pi
        out = np.zeros((dim, dim), dtype=np.complex128)
        for c, alpha in zip(coeff, nodes):
            if c == 0:
                continue
            out += c * _diffusion_kernel(alpha, tau, dim)
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
    if spec.kind not in StateSpec.KINDS:
        raise UnsupportedInput(f"unsupported input kind {spec.kind!r}")
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
        kernel0 = np.diag(ordered_gaussian_kernel(lam, 0.0, 0.0, dim))
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
        # coefficient; f eta^2 and g xi^2 give the a^2 and a'^2 coefficients
        quad_down = f * eta_op**2 / denom
        quad_up = g * xi_op**2 / denom
        up = _exp_quadratic_raising(quad_up, dim)
        down = _exp_quadratic_raising(quad_down, dim).T
        diag = (1.0 + lam) ** np.arange(dim)
        body = (up * diag[None, :]) @ down
        unsigned = (1.0 / math.cosh(spec.squeeze) / tau) * body / math.sqrt(denom)
        sign = _unit_trace_sign(float(np.trace(unsigned).real), "cross-element route")
        rho = sign * unsigned

    _check_trace(rho, "cross-element route")
    return DensityMatrix(rho, label="husimi_integral")
