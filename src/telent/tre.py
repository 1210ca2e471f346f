"""Telescopic relative entropy.

The normalized quantity S(rho || a*rho + (1-a)*sigma) / (-log a), its
closed-form limits at a -> 0 and a -> 1, the exact pure-state and scalar
formulas, and the surrounding entropy quantities (von Neumann entropy,
relative entropy with support semantics, binary entropy, the two-state
Holevo quantity, the identity-mixing regularisation, and the collinear
smoothing bound).

All entropies are natural-log (nats).  The telescopic quantities are
dimensionless ratios and independent of the log base.
"""

from __future__ import annotations

import numpy as np

from .matfun import (
    _psd_spectrum,
    spectral_decompose,
    support_basis,
    support_projector,
    trace_norm_distance,
)
from .states import telescope_mix

__all__ = [
    "EPS_SUPP",
    "von_neumann_entropy",
    "relative_entropy",
    "telescopic_relative_entropy",
    "tre_limit_zero",
    "tre_limit_one",
    "tre_pure_closed_form",
    "scalar_tre",
    "binary_entropy",
    "holevo_two",
    "holevo_two_via_relative",
    "lendi_regularised",
    "collinear_smoothing_bound",
]

# Mass of rho allowed outside the support of sigma before the relative
# entropy is declared infinite.
EPS_SUPP = 1e-10

# Entropy values in [-_NEG_CLAMP, 0) are roundoff and clamped to zero.
_NEG_CLAMP = 1e-10


def _clamp_entropy(value: float) -> float:
    if -_NEG_CLAMP <= value < 0.0:
        return 0.0
    return value


def _sum_xlogx(lam: np.ndarray) -> float:
    """sum lambda_i log lambda_i with the 0 log 0 = 0 convention."""
    pos = lam[lam > 0.0]
    return float(np.sum(pos * np.log(pos)))


def von_neumann_entropy(rho) -> float:
    """- tr rho log rho; zero for pure states, log(dim) for maximally mixed."""
    dec, _ = _psd_spectrum(rho)
    return _clamp_entropy(-_sum_xlogx(dec.eigenvalues))


def relative_entropy(rho, sigma) -> float:
    """tr rho (log rho - log sigma), +inf outside the support of sigma.

    The value is infinite when rho carries more than ``EPS_SUPP`` mass on
    the kernel of sigma; otherwise both operators are compressed to the
    support of sigma and the result is finite and nonnegative.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    V = support_basis(sigma)
    rho_c = V.conj().T @ rho @ V
    leak = 1.0 - float(np.trace(rho_c).real)
    if leak > EPS_SUPP:
        return float("inf")
    sig_c = V.conj().T @ sigma @ V
    dec = spectral_decompose(sig_c)
    log_sig = dec.apply(np.log(dec.eigenvalues))
    rho_dec, _ = _psd_spectrum(rho)
    value = _sum_xlogx(rho_dec.eigenvalues) - float(
        np.real(np.trace(rho_c @ log_sig))
    )
    return _clamp_entropy(value)


def telescopic_relative_entropy(rho, sigma, a: float) -> float:
    """S(rho || a*rho + (1-a)*sigma) / (-log a), valued in [0, 1].

    Always finite: the mixture dominates a*rho, so rho never leaves its
    support.  The endpoints a = 0 and a = 1 dispatch to the closed-form
    limits.  The value is 0 iff rho = sigma (for a > 0) and 1 iff the two
    states are orthogonal.

    The mixture is strictly positive on the joint support of the pair, so
    instead of the generic support-containment test the computation
    compresses there and floors the mixture's eigenvalues at the spectral
    noise level.  That keeps the value finite and accurate even for
    telescoping parameters as extreme as 1e-11, where genuine mixture
    eigenvalues a*nu sink below the relative rank cutoff and a support
    test would misclassify them.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"telescoping parameter a must lie in [0, 1], got {a}")
    if a == 0.0:
        return tre_limit_zero(rho, sigma)
    if a == 1.0:
        return tre_limit_one(rho, sigma)
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    V = support_basis((rho + sigma) / 2.0)
    rho_c = V.conj().T @ rho @ V
    tau_c = a * rho_c + (1.0 - a) * (V.conj().T @ sigma @ V)
    dec, floor = _psd_spectrum(tau_c)
    log_tau = dec.apply(np.log(np.maximum(dec.eigenvalues, floor)))
    rho_dec, _ = _psd_spectrum(rho)
    value = _sum_xlogx(rho_dec.eigenvalues) - float(
        np.real(np.trace(rho_c @ log_tau))
    )
    return _clamp_entropy(_clamp_entropy(value) / (-np.log(a)))


def tre_limit_zero(rho, sigma) -> float:
    """a -> 0 limit: 1 - tr rho {sigma}.

    Zero whenever sigma is faithful; 1 - tr rho sigma when sigma is pure.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    P = support_projector(sigma)
    return _clamp_entropy(1.0 - float(np.real(np.trace(rho @ P))))


def tre_limit_one(rho, sigma) -> float:
    """a -> 1 limit: 1 - tr sigma {rho}.  Zero whenever rho is faithful."""
    return tre_limit_zero(sigma, rho)


def tre_pure_closed_form(t: float, a: float) -> float:
    """Exact value for two pure states with trace norm distance ``t``.

    With w = 4a(1-a)t^2,

        (1/(-2 log a)) * (-log(w/4)
            - ((1 - w/(2a)) / sqrt(1-w)) * log((1+sqrt(1-w))/(1-sqrt(1-w)))).

    The w = 1 singularity (orthogonal states at a = 1/2) is removable and
    evaluated by series; the log ratio is computed as log((1+u)^2/w) to
    stay stable as w -> 0.  Both endpoint limits a -> 0, 1 converge to t^2.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"trace norm distance t must lie in [0, 1], got {t}")
    if not 0.0 < a < 1.0:
        raise ValueError(f"telescoping parameter a must lie in (0, 1), got {a}")
    w = min(4.0 * a * (1.0 - a) * t * t, 1.0)
    if w == 0.0:
        # t = 0 exactly, or so small that w underflows; the value is 0 at
        # double precision either way
        return 0.0
    u = np.sqrt(1.0 - w)
    c = 1.0 - w / (2.0 * a)
    if u < 1e-6:
        second = 2.0 * c * (1.0 + u * u / 3.0)
    else:
        second = (c / u) * np.log((1.0 + u) ** 2 / w)
    value = (-np.log(w / 4.0) - second) / (-2.0 * np.log(a))
    return max(float(value), 0.0)


def scalar_tre(b: float, c: float, a: float) -> float:
    """Scalar case b (log b - log(ab + (1-a)c)) / (-log a), 0 log 0 = 0.

    Defined for all nonnegative scalars, not just normalized ones, so the
    value is bounded above by b but may be negative when c > b.
    """
    if b < 0.0 or c < 0.0:
        raise ValueError("scalar arguments must be nonnegative")
    if not 0.0 < a < 1.0:
        raise ValueError(f"telescoping parameter a must lie in (0, 1), got {a}")
    if b == 0.0:
        return 0.0
    return float(b * (np.log(b) - np.log(a * b + (1.0 - a) * c)) / (-np.log(a)))


def binary_entropy(p: float) -> float:
    """-p log p - (1-p) log(1-p) in nats; zero at both endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log(p) - (1.0 - p) * np.log1p(-p))


def holevo_two(p: float, rho, sigma) -> float:
    """Holevo quantity of the two-state ensemble {(p, rho), (1-p, sigma)}.

    S(p rho + (1-p) sigma) - p S(rho) - (1-p) S(sigma); bounded above by
    the binary entropy h(p) and, more sharply, by h(p) times the trace
    norm distance of the pair.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    mix = telescope_mix(rho, sigma, p)
    value = (
        von_neumann_entropy(mix)
        - p * von_neumann_entropy(rho)
        - (1.0 - p) * von_neumann_entropy(sigma)
    )
    return _clamp_entropy(float(value))


def holevo_two_via_relative(p: float, rho, sigma) -> float:
    """Same quantity as weighted relative entropies against the mixture.

    p S(rho||mix) + (1-p) S(sigma||mix); zero-weight terms are skipped so
    the p = 0, 1 endpoints avoid 0 * inf.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    mix = telescope_mix(rho, sigma, p)
    value = 0.0
    if p > 0.0:
        value += p * relative_entropy(rho, mix)
    if p < 1.0:
        value += (1.0 - p) * relative_entropy(sigma, mix)
    return _clamp_entropy(float(value))


def lendi_regularised(rho, sigma, c_d: float = 1.0) -> float:
    """Identity-mixing regularisation of the relative entropy.

    c_d * S((rho + I)/(1 + d) || (sigma + I)/(1 + d)) in dimension d.
    Both arguments become faithful, so the value is always finite; it
    scales linearly in the normalisation constant ``c_d``.
    """
    if c_d <= 0.0:
        raise ValueError(f"normalisation constant must be positive, got {c_d}")
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    d = rho.shape[0]
    eye = np.eye(d)
    return c_d * relative_entropy((rho + eye) / (1 + d), (sigma + eye) / (1 + d))


def collinear_smoothing_bound(rho, sigma, epsilon: float) -> tuple[float, float]:
    """Collinear shortcut to smoothing: mix toward rho within a trace budget.

    With a = epsilon / ||rho - sigma||_1 and tau = a*rho + (1-a)*sigma the
    mixture satisfies ||tau - sigma||_1 = epsilon exactly, and the
    returned relative entropy s = S(rho||tau) obeys s <= -log a.  Returns
    (s, -log a).
    """
    norm1 = 2.0 * trace_norm_distance(rho, sigma)
    if not 0.0 < epsilon < norm1:
        raise ValueError(
            f"epsilon must lie strictly between 0 and ||rho-sigma||_1 = {norm1:.6e}"
        )
    a = epsilon / norm1
    tau = telescope_mix(rho, sigma, a)
    return relative_entropy(rho, tau), float(-np.log(a))
