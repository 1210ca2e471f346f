"""Independent numerical oracles for cross-validating the spectral code.

Quadrature realizations of the defining integrals -- the logarithm as
integral of resolvent differences, the support projector as the integral
of (rho+s)^-1 rho (rho+s)^-1, the derivative maps of log and of
fractional powers, and the telescopic relative entropy itself -- plus
central finite differences.  These paths deliberately avoid the
eigendecomposition route used by the main implementation: matrix work is
done with LU-based inverses/solves and, for finite differences, with
scipy's Pade/Schur matrix functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from numpy.polynomial.legendre import leggauss

from .matfun import _as_pair, hermitian_part, support_basis

DEFAULT_NODES = 501

# The power-measure node stretch is capped so extreme Renyi orders cannot
# overflow the weight * node products in double precision.
_STRETCH_CAP = 25.0


@dataclass(frozen=True)
class QuadratureScheme:
    """Nodes and positive weights discretizing a measure on (0, inf)."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    p: float | None = field(default=None)

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        if self.n < 16:
            raise ValueError("schemes need at least 16 nodes")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n(self) -> int:
        return int(self.nodes.shape[0])


def _gl01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, 1)."""
    x, w = leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=16)
def rational_scheme(n: int = DEFAULT_NODES) -> QuadratureScheme:
    """ds on (0, inf) via the rational map s = u/(1-u) of a (0,1) grid."""
    u, wu = _gl01(n)
    return QuadratureScheme(u / (1.0 - u), wu / (1.0 - u) ** 2, "rational")


@lru_cache(maxsize=16)
def log_scheme(n: int = DEFAULT_NODES, span: float = 25.0) -> QuadratureScheme:
    """ds via s = exp(y), y on [-span, span].

    The truncation window doubles as a scale separator: spectrum below
    about exp(-span) integrates to ~0 (kernel), above exp(-span/2)-ish to
    its full weight, which is exactly the behaviour the support-projector
    integral needs on numerically rank-deficient input.
    """
    x, w = leggauss(n)
    s = np.exp(span * x)
    return QuadratureScheme(s, span * w * s, "log")


@lru_cache(maxsize=64)
def power_scheme(p: float, n: int = DEFAULT_NODES) -> QuadratureScheme:
    """The measure (sin(p pi)/pi) s^(p-1) ds representing x -> x^p.

    Realized on s = (u/(1-u))^c with c = min(2/(p(1-p)), cap): the power
    stretch absorbs the s^(p-1) endpoint singularity at 0 and the slow
    s^(p-2) tail simultaneously, keeping Gauss-Legendre convergence fast
    across the whole order range exercised here (p in roughly
    [0.05, 0.95]).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"power order p must lie in (0, 1), got {p}")
    u, wu = _gl01(n)
    c = min(2.0 / (p * (1.0 - p)), _STRETCH_CAP)
    logit = np.log(u) - np.log1p(-u)
    nodes = np.exp(c * logit)
    weights = (np.sin(np.pi * p) / np.pi) * c * np.exp(p * c * logit) / (u * (1.0 - u)) * wu
    return QuadratureScheme(nodes, weights, "power", p)


def _require_kind(scheme: QuadratureScheme, kind: str, p: float | None = None) -> None:
    if scheme.kind != kind:
        raise ValueError(f"expected a {kind!r} scheme, got {scheme.kind!r}")
    if p is not None and scheme.p != p:
        raise ValueError(f"scheme was built for p={scheme.p}, called with p={p}")


def _cholesky_pd(A) -> np.ndarray:
    """Return A as complex ndarray, requiring positive definiteness."""
    A = np.asarray(A, dtype=complex)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError("matrix must be positive definite") from None
    return A


def _shifted_inverses(A: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(A + s_k I)^-1 for all nodes, stacked along the first axis."""
    eye = np.eye(A.shape[0], dtype=complex)
    return np.linalg.inv(A[None, :, :] + s[:, None, None] * eye)


def quad_log(x: float, scheme: QuadratureScheme | None = None) -> float:
    """log x as the integral of 1/(1+s) - 1/(x+s) over s in (0, inf)."""
    if x <= 0.0:
        raise ValueError(f"logarithm integrand requires x > 0, got {x}")
    sch = scheme if scheme is not None else rational_scheme()
    _require_kind(sch, "rational")
    s = sch.nodes
    return float(np.sum(sch.weights * (1.0 / (1.0 + s) - 1.0 / (x + s))))


def quad_frechet_log(
    A, Delta, scheme: QuadratureScheme | None = None
) -> np.ndarray:
    """Derivative map of the matrix logarithm as a resolvent integral.

    Sum of w_k (A + s_k)^-1 Delta (A + s_k)^-1 over the node set.
    """
    A = _cholesky_pd(A)
    Delta = np.asarray(Delta, dtype=complex)
    sch = scheme if scheme is not None else rational_scheme()
    _require_kind(sch, "rational")
    R = _shifted_inverses(A, sch.nodes)
    out = np.einsum("k,kab,bc,kcd->ad", sch.weights, R, Delta, R, optimize=True)
    return hermitian_part(out)


def quad_projector_integral(
    rho, scheme: QuadratureScheme | None = None
) -> np.ndarray:
    """Support projector of a PSD matrix via its resolvent integral.

    Sum of w_k (rho + s_k)^-1 rho (rho + s_k)^-1: the identity on faithful
    input, the support projector on rank-deficient input (within the
    resolution of the log-stretched window).
    """
    rho = np.asarray(rho, dtype=complex)
    if float(np.linalg.eigvalsh(rho)[0]) < -1e-10:
        raise ValueError("projector integral requires a PSD matrix")
    sch = scheme if scheme is not None else log_scheme()
    _require_kind(sch, "log")
    R = _shifted_inverses(rho, sch.nodes)
    out = np.einsum("k,kab,bc,kcd->ad", sch.weights, R, rho, R, optimize=True)
    return hermitian_part(out)


def quad_tre(rho, sigma, a: float, scheme: QuadratureScheme | None = None) -> float:
    """Telescopic relative entropy through its resolvent-difference integral.

    (1/log a) * sum of w_k tr rho [(rho + s_k)^-1 - (tau + s_k)^-1] with
    tau the collinear mixture, everything restricted to the support of
    rho + sigma so tau is invertible there.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"telescoping parameter a must lie in (0, 1), got {a}")
    rho, sigma = _as_pair(rho, sigma)
    sch = scheme if scheme is not None else rational_scheme()
    _require_kind(sch, "rational")
    V = support_basis((rho + sigma) / 2.0)
    rho_c = V.conj().T @ rho @ V
    tau_c = a * rho_c + (1.0 - a) * (V.conj().T @ sigma @ V)
    s = sch.nodes
    eye = np.eye(rho_c.shape[0], dtype=complex)
    inv_r = np.linalg.solve(rho_c[None] + s[:, None, None] * eye, rho_c[None].repeat(sch.n, axis=0))
    inv_t = np.linalg.solve(tau_c[None] + s[:, None, None] * eye, rho_c[None].repeat(sch.n, axis=0))
    integrand = np.real(np.trace(inv_r - inv_t, axis1=1, axis2=2))
    return float(np.sum(sch.weights * integrand) / np.log(a))


def quad_power(x: float, p: float, scheme: QuadratureScheme | None = None) -> float:
    """x**p as the integral of x/(x+s) against the order-p power measure."""
    if x < 0.0:
        raise ValueError(f"power integrand requires x >= 0, got {x}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"power order p must lie in (0, 1), got {p}")
    if x == 0.0:
        return 0.0
    sch = scheme if scheme is not None else power_scheme(p)
    _require_kind(sch, "power", p)
    return float(np.sum(sch.weights * x / (x + sch.nodes)))


def quad_frechet_power(
    A, Delta, p: float, scheme: QuadratureScheme | None = None
) -> np.ndarray:
    """Derivative map of A -> A**p as a weighted resolvent integral.

    Sum of w_k s_k (A + s_k)^-1 Delta (A + s_k)^-1 against the order-p
    power measure.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"power order p must lie in (0, 1), got {p}")
    A = _cholesky_pd(A)
    Delta = np.asarray(Delta, dtype=complex)
    sch = scheme if scheme is not None else power_scheme(p)
    _require_kind(sch, "power", p)
    R = _shifted_inverses(A, sch.nodes)
    out = np.einsum(
        "k,kab,bc,kcd->ad", sch.weights * sch.nodes, R, Delta, R, optimize=True
    )
    return hermitian_part(out)


def finite_diff_frechet(kind: str, A, Delta, h: float, p: float | None = None) -> np.ndarray:
    """Central-difference derivative (f(A + h Delta) - f(A - h Delta))/(2h).

    ``kind`` is "log" or "power" (the latter needs the order ``p``).
    Second-order accurate in h; matrix functions are evaluated with
    scipy's inverse-scaling-and-squaring / Schur algorithms, independent
    of the divided-difference path.  Raises if the step drives A +- h
    Delta indefinite.
    """
    if kind not in ("log", "power"):
        raise ValueError(f'kind must be "log" or "power", got {kind!r}')
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    A = np.asarray(A, dtype=complex)
    Delta = np.asarray(Delta, dtype=complex)
    plus = A + h * Delta
    minus = A - h * Delta
    for M in (plus, minus):
        _cholesky_pd(M)
    if kind == "log":
        f_plus, f_minus = scipy.linalg.logm(plus), scipy.linalg.logm(minus)
    else:
        if p is None or not 0.0 < p < 1.0:
            raise ValueError(f"power kind needs an order p in (0, 1), got {p}")
        f_plus = scipy.linalg.fractional_matrix_power(plus, p)
        f_minus = scipy.linalg.fractional_matrix_power(minus, p)
    return hermitian_part((f_plus - f_minus) / (2.0 * h))
