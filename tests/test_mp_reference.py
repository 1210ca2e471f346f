"""S_a and Q_{p,a} against independent high-precision references.

S_a is checked at interior nodes from a = 1e-11 to a = 1 - 1e-9.  Q_{p,a}
is checked on the interior of the a-range, at a = 1, where it is the
closed form S_1 = 1 - tr sigma {rho}, and just below a = 1, where it tends
to S_1.

The references diagonalise rho and tau = a*rho + (1-a)*sigma in mpmath at
40 digits, from the exact values of the double inputs, and take the
library's rank-cut semantics for rho: eigenvalues at or below
max(dim, 16) * 2^-52 * lambda_max are exact zeros, 0 log 0 = 0, 0^q = 0
for q > 0 and x^0 is the support projector.  The overlap reference cuts
tau the same way; the S_a reference leaves tau uncut, since the log of
the mixture is finite wherever rho has weight.  They share no code with
the package.

``scripts/reference_errors.py`` prints the worst error of each node over
the pairs of this module, so a change that moves a value can show that
no worst error grows.
"""

import numpy as np
import pytest

from helpers import reference_sample_pair
from telent.renyi import trre
from telent.tre import telescopic_relative_entropy

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
# S_a per a: twice the worst error over this module's pairs of the cross
# term taken as tr rho_c log tau_c (1.25e-6, 1.17e-8, 1.73e-11, 1.22e-15,
# 1.33e-15, 7.55e-15, 2.62e-6); taken from the overlap weights it errs by
# at most 1.25e-6, 1.17e-8, 1.73e-11, 1.33e-15, 1.33e-15, 7.99e-15 and
# 1.22e-6.  Near the ends of the range the cross term cancels against
# sum lambda log lambda, and 1/(-log a) amplifies that at a -> 1.
SA_TOLERANCE = {
    1e-11: 2.5e-6,
    1e-9: 2.5e-8,
    1e-6: 3.5e-11,
    0.1: 2.5e-15,
    0.5: 2.7e-15,
    0.9: 1.5e-14,
    1.0 - 1e-9: 5.3e-6,
}
STRATA = ("faithful", "rank_deficient", "pure", "orthogonal")
DIMS = (2, 3, 4, 8, 16)
# S_a's reference diagonalises a mixture per a, so it takes the smaller sizes
SA_DIMS = (2, 3, 4, 8)
A_GRID = (0.1, 0.5, 0.9)
P_GRID = (0.25, 0.5, 0.75)
# the measured worst error is 1.1e-13, at a = 0.9, where 1 - a^p
# amplifies the overlap's roundoff
TOLERANCE = 1e-12
# Q_{p,1} against S_1: the measured worst error is 7.6e-16
TOLERANCE_A_ONE = 1e-14
# Q_{p,1-e} against S_1 at e = 1e-7: the measured worst gap is 2.4e-5, at
# d = 16 on the faithful pair.  It is the O(e) term of the limit, which
# grows as the least eigenvalue of rho shrinks; the library's own error
# against the reference at that a is at most 9.6e-8.
NEAR_A_ONE = 1.0 - 1e-7
TOLERANCE_NEAR_A_ONE = 5e-5


def reference_pair(dim, stratum):
    """The pair of this module at a dimension and a sampling stratum."""
    rng = np.random.default_rng([dim, STRATA.index(stratum)])
    return reference_sample_pair(rng, dim, stratum)


def _mp_spectrum(H, cut=True):
    """Eigenvalues, the kernel cut to exact zeros unless ``cut`` is false,
    and eigenvectors of an mpmath Hermitian matrix."""
    lam, U = mpmath.eighe(H)
    lam = [lam[i] for i in range(H.rows)]
    if not cut:
        return lam, U
    level = max(H.rows, 16) * mpmath.mpf(2) ** -52 * max(lam)
    return [x if x > level else mpmath.mpf(0) for x in lam], U


def reference_sa(rho, sigma, a_grid):
    """S(rho || tau) / (-log a) at ``DIGITS`` digits, per a of the grid, as
    (sum lambda log lambda - sum_ij lambda_i |(U* W)_ij|^2 log mu_j) / (-log a)
    with rho = U diag(lambda) U*, its kernel cut, and tau = W diag(mu) W*
    uncut.  The inputs' roundoff can leave an eigenvalue of the joint
    kernel slightly negative, where rho's weight is at roundoff level, so
    the log is taken of |mu_j|."""
    with mpmath.workdps(DIGITS):
        R, S = mpmath.matrix(rho.tolist()), mpmath.matrix(sigma.tolist())
        lam, U = _mp_spectrum(R)
        support = [i for i in range(len(lam)) if lam[i] > 0]
        xlogx = mpmath.fsum(lam[i] * mpmath.log(lam[i]) for i in support)
        values = {}
        for a in a_grid:
            a_mp = mpmath.mpf(a)
            mu, W = _mp_spectrum(a_mp * R + (1 - a_mp) * S, cut=False)
            weights = [[abs(z) ** 2 for z in row] for row in (U.H * W).tolist()]
            cross = mpmath.fsum(
                lam[i] * weights[i][j] * mpmath.log(abs(mu[j]))
                for i in support
                for j in range(len(mu))
            )
            values[a] = float((xlogx - cross) / -mpmath.log(a_mp))
        return values


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


@pytest.mark.parametrize("dim", SA_DIMS)
@pytest.mark.parametrize("stratum", STRATA)
def test_sa_matches_the_reference(dim, stratum):
    rho, sigma = reference_pair(dim, stratum)
    reference = reference_sa(rho, sigma, SA_TOLERANCE)
    for a, tolerance in SA_TOLERANCE.items():
        assert abs(telescopic_relative_entropy(rho, sigma, a) - reference[a]) <= tolerance, a


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("stratum", STRATA)
def test_trre_matches_the_reference(dim, stratum):
    rho, sigma = reference_pair(dim, stratum)
    reference = reference_trre(rho, sigma, P_GRID, A_GRID)
    errors = [abs(trre(rho, sigma, p, a) - value) for (p, a), value in reference.items()]
    assert max(errors) <= TOLERANCE


def reference_s1(rho, sigma):
    """1 - tr sigma {rho} at ``DIGITS`` digits, {rho} the projector onto the
    support of rho's cut spectrum."""
    with mpmath.workdps(DIGITS):
        lam, U = _mp_spectrum(mpmath.matrix(rho.tolist()))
        S = mpmath.matrix(sigma.tolist())
        kept = [i for i in range(len(lam)) if lam[i] > 0]
        return float(1 - mpmath.fsum(mpmath.re((U[:, i].H * S * U[:, i])[0]) for i in kept))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("stratum", STRATA)
def test_trre_at_and_near_a_one_is_s1(dim, stratum):
    rho, sigma = reference_pair(dim, stratum)
    s1 = reference_s1(rho, sigma)
    at_one = trre(rho, sigma, P_GRID, 1.0)
    near_one = trre(rho, sigma, P_GRID, NEAR_A_ONE)
    assert np.abs(at_one - s1).max() <= TOLERANCE_A_ONE
    assert np.abs(near_one - s1).max() <= TOLERANCE_NEAR_A_ONE
