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
come from the same decomposition of tau_c that S_a takes its log of.
Powers follow the support conventions: the cut kernel of rho and of tau_c
is exactly 0, 0^q = 0 for q > 0, and x^0 is 1 on the support and 0 on the
kernel, so rho^0 and tau^0 are the support projectors.

This module is the public layer only.  Its functions take the arguments
of ``tre.telescopic_relative_entropy`` (one pair or a stack, a scalar or
a grid of a in [0, 1]) plus a scalar or a grid of p, and read the
spectral core of the pairs (``tre._Core``), whose ``overlaps`` and ``q``
evaluate the sum above and Q_{p,a} over the whole (p, a) grid.  In a sweep
block (``tre._block_core``) that is the block's core, so S_a, the
overlaps and Q_{p,a} share the block's mixtures.
"""

from __future__ import annotations

from .matfun import _checked
from .tre import _pairs, _shaped


def renyi_overlap(rho, sigma, p):
    """tr rho^(1-p) sigma^p for p in [0, 1].

    The telescoped overlap at a = 0, with its shapes.  Symmetric under
    swapping (rho, p) with (sigma, 1-p); equals 1 at rho = sigma, vanishes
    exactly on orthogonal pairs, and is bounded below by 1 - T(rho, sigma).
    """
    return renyi_overlap_telescoped(rho, sigma, p, 0.0)


def renyi_overlap_telescoped(rho, sigma, p, a):
    """Raw telescoped overlap tr rho^(1-p) (a*rho + (1-a)*sigma)^p.

    Takes values in [a^p, 1]; the minimum a^p is attained exactly on
    orthogonal pairs, and at a = 1 the overlap is tr rho = 1.  Computed by
    the overlap formula of the module docstring, with the mixture
    compressed to the joint support and decomposed once per pair and a.

    Shapes: ``rho``, ``sigma`` and ``a`` as for
    ``tre.telescopic_relative_entropy``; ``p`` in [0, 1] is a scalar or a
    (P,) grid.  A stack returns (N, P, K) for a (K,) or (N, K) grid of a;
    a scalar ``p`` drops its axis, as a scalar ``a`` does, one pair drops
    the N axis, and an array of p of any shape takes the place of (P,).
    One pair with scalar ``p`` and ``a`` returns a Python float, and every
    element of a stacked call is that float bit for bit.
    """
    core, grid, lead, tail = _pairs(rho, sigma, a)
    orders = _checked(p, "Renyi order p")
    return _shaped(core.overlaps(orders.ravel().tolist(), grid), lead + orders.shape + tail)


def trre(rho, sigma, p, a):
    """Telescopic relative Renyi entropy Q_{p,a} in [0, 1], p in (0, 1).

    (1 - tr rho^(1-p) tau^p) / (1 - a^p) with tau = a*rho + (1-a)*sigma,
    clamped at 0, the overlap taken as in ``renyi_overlap_telescoped``.
    Zero iff rho = sigma; equals 1 on orthogonal pairs; bounded above by
    the trace norm distance T(rho, sigma).  Shapes as for
    ``renyi_overlap_telescoped``.

    At a = 1 the quotient is 0/0, and Q_{p,1} is its limit, the closed
    form S_1 = 1 - tr sigma {rho} of S_a, with {rho} the support projector
    P of rho.  With e = 1 - a, tau = rho + e (sigma - rho).  In blocks over
    supp rho + ker rho, tau = [[A, e B], [e B*, e C]] with
    A = rho_s + e (sigma_ss - rho_s), B = sigma_sk and C = sigma_kk.  The
    eigenvalues of A are of order 1 and those of e C of order e, so the
    coupling e B tilts tau's eigenvectors between the blocks by O(e) and
    moves the eigenvalues of A by O(e^2).  The eigenvalues of the kernel
    block, of order e, carry an O(e^2) weight on supp rho, and a kernel
    vector of C is one of B too, as sigma >= 0.  Hence
    P tau^p P = A^p + O(e^2), and as rho_s is faithful on its support,

        tr rho^(1-p) tau^p = tr rho_s^(1-p) A^p + O(e^2)
                           = 1 + p e tr(sigma_ss - rho_s) + O(e^2)
                           = 1 - p e (1 - tr sigma P) + O(e^2),

    because the derivative of x^p at rho_s in the direction D has the
    diagonal p lambda_i^(p-1) D_ii in rho's eigenbasis.  With
    1 - a^p = p e + O(e^2), Q_{p,a} = (1 - tr sigma P) + O(e) as a -> 1.
    For faithful rho, P = 1 and Q_{p,1} = 0.
    """
    orders = _checked(p, "Renyi order p", closed=False)
    core, grid, lead, tail = _pairs(rho, sigma, a)
    return _shaped(core.q(orders.ravel().tolist(), grid), lead + orders.shape + tail)
