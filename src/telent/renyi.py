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

from .matfun import _as_pair, _psd_spectrum
from .states import telescope_mix


def state_power(rho, q: float) -> np.ndarray:
    """rho**q on the spectrum of a PSD operator, 0 <= q <= 1.

    Eigenvalues at or below the rank cutoff are treated as exact zeros;
    q = 0 returns the support projector.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"exponent must lie in [0, 1], got {q}")
    dec, _ = _psd_spectrum(rho)
    lam = dec.eigenvalues
    # the kernel is exactly 0, so 0**q = 0 for q > 0; q = 0 needs the mask
    return dec.apply(lam**q if q > 0.0 else (lam > 0.0).astype(float))


def renyi_overlap(rho, sigma, p: float) -> float:
    """tr rho^(1-p) sigma^p for p in [0, 1].

    Symmetric under swapping (rho, p) with (sigma, 1-p); equals 1 at
    rho = sigma, vanishes exactly on orthogonal pairs, and is bounded
    below by 1 - T(rho, sigma).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Renyi order p must lie in [0, 1], got {p}")
    rho, sigma = _as_pair(rho, sigma)
    value = float(
        np.real(np.trace(state_power(rho, 1.0 - p) @ state_power(sigma, p)))
    )
    return max(value, 0.0)


def renyi_overlap_telescoped(rho, sigma, p: float, a: float) -> float:
    """Raw telescoped overlap tr rho^(1-p) (a*rho + (1-a)*sigma)^p.

    Takes values in [a^p, 1]; the minimum a^p is attained exactly on
    orthogonal pairs.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"telescoping parameter a must lie in [0, 1), got {a}")
    return renyi_overlap(rho, telescope_mix(rho, sigma, a), p)


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
