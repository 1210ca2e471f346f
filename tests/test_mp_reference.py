"""Q_{p,a} against an independent high-precision reference.

The reference diagonalises rho and tau = a*rho + (1-a)*sigma in mpmath at
40 digits, from the exact values of the double inputs, and takes the
library's rank-cut semantics: eigenvalues at or below
max(dim, 16) * 2^-52 * lambda_max are exact zeros, 0^q = 0 for q > 0 and
x^0 is the support projector.  It shares no code with the package.
"""

import numpy as np
import pytest

from helpers import reference_sample_pair
from telent.renyi import trre

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
STRATA = ("faithful", "rank_deficient", "pure", "orthogonal")
A_GRID = (0.1, 0.5, 0.9)
P_GRID = (0.25, 0.5, 0.75)
# the measured worst error is 1.1e-13, at a = 0.9, where 1 - a^p
# amplifies the overlap's roundoff
TOLERANCE = 1e-12


def _mp_spectrum(H):
    """Eigenvalues, the kernel cut to exact zeros, and eigenvectors of an
    mpmath Hermitian matrix."""
    lam, U = mpmath.eighe(H)
    lam = [lam[i] for i in range(H.rows)]
    cut = max(H.rows, 16) * mpmath.mpf(2) ** -52 * max(lam)
    return [x if x > cut else mpmath.mpf(0) for x in lam], U


def _mp_pow(x, q):
    if q == 0:
        return mpmath.mpf(1 if x > 0 else 0)
    return x**q if x > 0 else mpmath.mpf(0)


def reference_trre(rho, sigma, p_grid, a_grid):
    """(1 - tr rho^(1-p) tau^p) / (1 - a^p) at ``DIGITS`` digits, per
    (p, a) of the grids."""
    with mpmath.workdps(DIGITS):
        lam, U = _mp_spectrum(mpmath.matrix(rho.tolist()))
        values = {}
        for a in a_grid:
            a_mp = mpmath.mpf(a)
            tau = a_mp * mpmath.matrix(rho.tolist()) + (1 - a_mp) * mpmath.matrix(sigma.tolist())
            mu, W = _mp_spectrum(tau)
            weights = [[abs(z) ** 2 for z in row] for row in (U.H * W).tolist()]
            for p in p_grid:
                p_mp = mpmath.mpf(p)
                overlap = mpmath.fsum(
                    _mp_pow(lam[i], 1 - p_mp) * _mp_pow(mu[j], p_mp) * weights[i][j]
                    for i in range(len(lam))
                    for j in range(len(mu))
                )
                values[p, a] = float((1 - overlap) / (1 - a_mp**p_mp))
        return values


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("stratum", STRATA)
def test_trre_matches_the_reference(dim, stratum):
    rng = np.random.default_rng([dim, STRATA.index(stratum)])
    rho, sigma = reference_sample_pair(rng, dim, stratum)
    reference = reference_trre(rho, sigma, P_GRID, A_GRID)
    errors = [abs(trre(rho, sigma, p, a) - value) for (p, a), value in reference.items()]
    assert max(errors) <= TOLERANCE
