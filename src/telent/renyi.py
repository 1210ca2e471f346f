"""Renyi overlap functionals and the telescopic relative Renyi entropies.

The overlap tr rho^(1-p) sigma^p is always in [0, 1], so telescoping is
not needed for finiteness here; it still produces a normalized quantity
Q_{p,a} = (1 - tr rho^(1-p) tau^p)/(1 - a^p) with tau the collinear
mixture, bounded above by the trace norm distance.

No matrix power is formed.  tau = a*rho + (1-a)*sigma lives on the joint
support V of the pair, so with rho = sum_i lambda_i |u_i><u_i| and the
mixture compressed to V, tau_c = V* tau V = sum_j mu_j |w_j><w_j|,

    tr rho^(1-p) tau^p = sum_ij lambda_i^(1-p) mu_j^p |(U_rho* V U_tau_c)_ij|^2.

The weights |(U_rho* V U_tau_c)_ij|^2 depend on a but not on p, and they
come from the same decomposition of tau_c that S_a takes its log of: both
read the spectral core of the pair (``tre._Core``), whose ``overlaps``
evaluates this sum for a stack of pairs over a (p, a) grid.  Powers
follow the support conventions: the cut kernel of rho and of tau_c is
exactly 0, 0^q = 0 for q > 0, and x^0 is 1 on the support and 0 on the
kernel, so rho^0 and tau^0 are the support projectors.
"""

from __future__ import annotations

from .matfun import _as_pair
from .tre import _pair_core


def renyi_overlap(rho, sigma, p: float) -> float:
    """tr rho^(1-p) sigma^p for p in [0, 1].

    The telescoped overlap at a = 0.  Symmetric under swapping (rho, p)
    with (sigma, 1-p); equals 1 at rho = sigma, vanishes exactly on
    orthogonal pairs, and is bounded below by 1 - T(rho, sigma).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Renyi order p must lie in [0, 1], got {p}")
    return renyi_overlap_telescoped(rho, sigma, p, 0.0)


def renyi_overlap_telescoped(rho, sigma, p: float, a: float) -> float:
    """Raw telescoped overlap tr rho^(1-p) (a*rho + (1-a)*sigma)^p.

    Takes values in [a^p, 1]; the minimum a^p is attained exactly on
    orthogonal pairs.  Computed from the pair's core (``tre._pair_core``)
    by the overlap formula of the module docstring, with the mixture
    compressed to the joint support and decomposed once per pair and a.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"telescoping parameter a must lie in [0, 1), got {a}")
    rho, sigma = _as_pair(rho, sigma)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Renyi order p must lie in [0, 1], got {p}")
    return float(_pair_core(rho, sigma).overlaps((p,), [[a]])[0, 0, 0])


def trre(rho, sigma, p: float, a: float) -> float:
    """Telescopic relative Renyi entropy Q_{p,a} in [0, 1].

    (1 - tr rho^(1-p) tau^p) / (1 - a^p) with tau = a*rho + (1-a)*sigma,
    the overlap taken as sum_ij lambda_i^(1-p) mu_j^p |(U_rho* V U_tau_c)_ij|^2
    over the spectra of rho and of tau compressed to the joint support V
    (see the module docstring).  Zero iff rho = sigma; equals 1 on
    orthogonal pairs; bounded above by the trace norm distance
    T(rho, sigma).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"Renyi order p must lie in (0, 1), got {p}")
    overlap = renyi_overlap_telescoped(rho, sigma, p, a)
    value = (1.0 - overlap) / (1.0 - a**p)
    return max(float(value), 0.0)
