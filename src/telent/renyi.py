"""Renyi overlap functionals and the telescopic relative Renyi entropies.

The overlap tr rho^(1-p) sigma^p is always in [0, 1], so telescoping is
not needed for finiteness here; it still produces a normalized quantity
Q_{p,a} = (1 - tr rho^(1-p) tau^p)/(1 - a^p) with tau the collinear
mixture, bounded above by the trace norm distance.

Powers of rank-deficient states follow the support conventions:
0^p = 0 for p > 0 and x^0 is the support projector.
"""

from __future__ import annotations

import numpy as np

from .matfun import (
    SpectralDecomposition,
    _as_pair,
    _psd_spectra,
    _psd_spectrum,
)


def _power(dec: SpectralDecomposition, q: float) -> np.ndarray:
    """The decomposed matrix (or stack) to the power q, 0 <= q <= 1."""
    lam = dec.eigenvalues
    # the kernel is exactly 0, so 0**q = 0 for q > 0; q = 0 needs the mask
    return dec.apply(lam**q if q > 0.0 else (lam > 0.0).astype(float))


def _clamped_trace(product: np.ndarray):
    """Real trace of a matrix or a stack, negatives set to 0.

    As Python's max(value, 0.0) would: -0.0 and NaN pass through.
    """
    value = np.trace(product, axis1=-2, axis2=-1).real
    return np.where(value < 0.0, 0.0, value)


def state_power(rho, q: float) -> np.ndarray:
    """rho**q on the spectrum of a PSD operator, 0 <= q <= 1.

    Eigenvalues at or below the rank cut are treated as exact zeros;
    q = 0 returns the support projector.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"exponent must lie in [0, 1], got {q}")
    dec, _ = _psd_spectrum(rho)
    return _power(dec, q)


def renyi_overlap(rho, sigma, p: float) -> float:
    """tr rho^(1-p) sigma^p for p in [0, 1].

    Symmetric under swapping (rho, p) with (sigma, 1-p); equals 1 at
    rho = sigma, vanishes exactly on orthogonal pairs, and is bounded
    below by 1 - T(rho, sigma).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Renyi order p must lie in [0, 1], got {p}")
    rho, sigma = _as_pair(rho, sigma)
    return float(_clamped_trace(state_power(rho, 1.0 - p) @ state_power(sigma, p)))


def _overlap_grid(rho, sigma, p_grid, a_grid, memo: bool = False) -> np.ndarray:
    """Telescoped overlaps of a stack of pairs over a (p, a) grid.

    ``rho`` and ``sigma`` have shape (N, d, d); the result has shape
    (N, len(p_grid), len(a_grid)) and holds tr rho^(1-p) tau^p with
    tau = a*rho + (1-a)*sigma, each element bit for bit what the one-pair
    call computes.  The N states and the N * len(a_grid) mixtures are two
    stacks for ``_psd_spectra``: from the store inside a sweep block, from
    the spectrum memo when ``memo`` is set (``renyi_overlap_telescoped``,
    one pair at one a), else from a fresh stacked eigh.  rho^(1-p) is
    built once per pair and p.
    """
    n, k, shape = len(rho), len(a_grid), rho.shape[1:]
    a = np.asarray(a_grid, dtype=float)[:, None, None]
    mixes = a * rho[:, None] + (1.0 - a) * sigma[:, None]
    states, _ = _psd_spectra(rho, memo)
    mixtures, _ = _psd_spectra(mixes.reshape(n * k, *shape), memo)
    mixtures = SpectralDecomposition(
        mixtures.eigenvalues.reshape(n, k, -1), mixtures.eigenvectors.reshape(n, k, *shape)
    )
    out = np.empty((n, len(p_grid), k))
    for j, p in enumerate(p_grid):
        out[:, j] = _clamped_trace(_power(states, 1.0 - p)[:, None] @ _power(mixtures, p))
    return out


def renyi_overlap_telescoped(rho, sigma, p: float, a: float) -> float:
    """Raw telescoped overlap tr rho^(1-p) (a*rho + (1-a)*sigma)^p.

    Takes values in [a^p, 1]; the minimum a^p is attained exactly on
    orthogonal pairs.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"telescoping parameter a must lie in [0, 1), got {a}")
    rho, sigma = _as_pair(rho, sigma)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Renyi order p must lie in [0, 1], got {p}")
    return float(_overlap_grid(rho[None], sigma[None], (p,), (a,), memo=True)[0, 0, 0])


def trre(rho, sigma, p: float, a: float) -> float:
    """Telescopic relative Renyi entropy Q_{p,a} in [0, 1].

    (1 - tr rho^(1-p) tau^p) / (1 - a^p) with tau = a*rho + (1-a)*sigma.
    Zero iff rho = sigma; equals 1 on orthogonal pairs; bounded above by
    the trace norm distance T(rho, sigma).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"Renyi order p must lie in (0, 1), got {p}")
    overlap = renyi_overlap_telescoped(rho, sigma, p, a)
    value = (1.0 - overlap) / (1.0 - a**p)
    return max(float(value), 0.0)
