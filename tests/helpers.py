"""Shared sampling helpers and scalar reference computations for the test suite."""

import numpy as np

from telent.matfun import TOL_HERM, _psd_spectrum, check_hermitian
from telent.states import (
    haar_random_pure,
    random_mixed_hs,
    random_orthogonal_pair,
)


def random_hermitian(rng, dim, scale=1.0):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (G + G.conj().T) / 2


def random_pd(rng, dim, floor=0.05):
    """Well-conditioned positive definite matrix with unit trace."""
    M = random_mixed_hs(dim, dim, rng)
    M = (M + floor * np.eye(dim)) / (1.0 + floor * dim)
    return M


def random_state_floor(rng, dim, floor=1e-3):
    """Full-rank random state with smallest eigenvalue at least ``floor``.

    Quadrature-vs-spectral comparisons need inputs whose spectrum stays
    inside the schemes' resolved range; resampling enforces that without
    biasing the interior.
    """
    while True:
        M = random_mixed_hs(dim, dim, rng)
        if np.linalg.eigvalsh(M)[0] >= floor:
            return M


def mixed_strata_stack(rng, dim):
    """Stacked (rho, sigma) pairs of every stratum at ``dim``.

    Faithful, rank-deficient, pure, orthogonal and identical pure pairs;
    the identical pure pair has joint support of rank 1 and the others of
    rank 2 or more, so the stack spans at least two rank groups.
    """
    pure = haar_random_pure(dim, rng)
    pairs = [
        (random_mixed_hs(dim, dim, rng), random_mixed_hs(dim, dim, rng)),
        (random_mixed_hs(dim, max(1, dim // 2), rng), random_mixed_hs(dim, dim - 1, rng)),
        (haar_random_pure(dim, rng), haar_random_pure(dim, rng)),
        random_orthogonal_pair(dim, rng),
        (pure, pure.copy()),
    ]
    return np.stack([r for r, _ in pairs]), np.stack([s for _, s in pairs])


def state_power(rho, q):
    """rho**q on the cut spectrum of a PSD operator, 0 <= q <= 1.

    Eigenvalues at or below the rank cut are exact zeros and q = 0 gives
    the support projector: the matrix-power form of the overlap
    tr rho^(1-p) tau^p, which the package computes without forming powers.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"exponent must lie in [0, 1], got {q}")
    dec, _ = _psd_spectrum(rho)
    return dec.apply(_reference_pow(dec.eigenvalues, q))


# Scalar references for the stacked kernels: the one-matrix, one-a sequence
# of operations, without the pair core or any stacking.  The stacked
# results must equal these bit for bit, so a platform whose stacked LAPACK
# or BLAS calls round differently fails instead of drifting.

def reference_psd_spectrum(A):
    """(eigenvalues with the kernel set to 0, eigenvectors, uncut eigenvalues
    floored at the mixture floor)."""
    lam, U = np.linalg.eigh(check_hermitian(A))
    dim = lam.shape[0]
    scale = max(float(lam[-1]), 0.0)
    if lam[0] < -dim * TOL_HERM * scale:
        raise ValueError("matrix is not positive semidefinite")
    floored = np.maximum(lam, dim * 2.0**-52 * scale)
    lam[lam <= max(dim, 16) * 2.0**-52 * scale] = 0.0
    return lam, U, floored


def _reference_clamp(value):
    return 0.0 if -1e-10 <= value < 0.0 else value


def reference_limit(rho, sigma):
    """1 - tr rho {sigma}, the a -> 0 limit, with the projector built whole."""
    lam, U, _ = reference_psd_spectrum(sigma)
    V = U[:, lam > 0.0]
    return _reference_clamp(1.0 - float(np.real(np.trace(rho @ (V @ V.conj().T)))))


def reference_sa(rho, sigma, a):
    """S_a of one pair at one a, step by step as the single-pair code does it."""
    if a == 0.0:
        return reference_limit(rho, sigma)
    if a == 1.0:
        return reference_limit(sigma, rho)
    lam, U, _ = reference_psd_spectrum((rho + sigma) / 2.0)
    V = U[:, lam > 0.0]
    rho_c = V.conj().T @ rho @ V
    tau_c = a * rho_c + (1.0 - a) * (V.conj().T @ sigma @ V)
    _, U, floored = reference_psd_spectrum(tau_c)
    log_tau = (U * np.log(floored)) @ U.conj().T
    lam_rho = reference_psd_spectrum(rho)[0]
    pos = lam_rho[lam_rho > 0.0]
    value = float(np.sum(pos * np.log(pos))) - float(np.real(np.trace(rho_c @ log_tau)))
    return _reference_clamp(_reference_clamp(value) / (-np.log(a)))


def _reference_pow(lam, q):
    """lam**q on a cut spectrum, with x^0 the support mask."""
    return lam**q if q > 0.0 else (lam > 0.0).astype(float)


def reference_overlap(rho, sigma, p, a):
    """tr rho^(1-p) tau^p of one pair at one a, tau = a*rho + (1-a)*sigma, as
    sum_ij lam_i^(1-p) mu_j^p |(U_rho* V U_tau_c)_ij|^2: the cut spectra of
    rho and of tau compressed to the joint support V, with x^0 the support
    mask."""
    lam, U, _ = reference_psd_spectrum((rho + sigma) / 2.0)
    V = U[:, lam > 0.0]
    rho_c = V.conj().T @ rho @ V
    tau_c = a * rho_c + (1.0 - a) * (V.conj().T @ sigma @ V)
    mu, U_tau, _ = reference_psd_spectrum(tau_c)
    lam_rho, U_rho, _ = reference_psd_spectrum(rho)
    M = (U_rho.conj().T @ V) @ U_tau
    weights = M.real**2 + M.imag**2
    row = _reference_pow(lam_rho, 1.0 - p)[None, :]
    return float((row @ weights @ _reference_pow(mu, p)[:, None])[0, 0])


def _reference_entropy(rho):
    lam = reference_psd_spectrum(rho)[0]
    pos = lam[lam > 0.0]
    return _reference_clamp(-float(np.sum(pos * np.log(pos))))


def reference_holevo(p, rho, sigma):
    """holevo_two of one pair, from three entropies."""
    mix = p * rho + (1.0 - p) * sigma
    value = (
        _reference_entropy(mix)
        - p * _reference_entropy(rho)
        - (1.0 - p) * _reference_entropy(sigma)
    )
    return _reference_clamp(float(value))


def _reference_relative_entropy(rho, sigma):
    lam, U, _ = reference_psd_spectrum(sigma)
    V = U[:, lam > 0.0]
    rho_c = V.conj().T @ rho @ V
    if 1.0 - float(np.trace(rho_c).real) > 1e-10:
        return float("inf")
    lam_s, U_s = np.linalg.eigh(check_hermitian(V.conj().T @ sigma @ V))
    log_sig = (U_s * np.log(lam_s)) @ U_s.conj().T
    lam_rho = reference_psd_spectrum(rho)[0]
    pos = lam_rho[lam_rho > 0.0]
    value = float(np.sum(pos * np.log(pos))) - float(np.real(np.trace(rho_c @ log_sig)))
    return _reference_clamp(value)


def reference_holevo_relative(p, rho, sigma):
    """holevo_two_via_relative of one pair, zero-weight terms skipped."""
    mix = p * rho + (1.0 - p) * sigma
    terms = [(w, state) for w, state in ((p, rho), (1.0 - p, sigma)) if w > 0.0]
    return _reference_clamp(float(sum(w * _reference_relative_entropy(s, mix) for w, s in terms)))


def reference_trace_distance(rho, sigma):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


# The per-trial samplers as plain numpy, one matrix and one RNG call at a
# time, in the order of the ``states`` samplers.  The stacked draw of the
# sweep and the samplers themselves must equal these bit for bit.

def _reference_ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def reference_mixed_hs(rng, dim, rank):
    M = _reference_ginibre(rng, dim, rank)
    M = M @ M.conj().T
    return M / float(np.trace(M).real)


def reference_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return np.outer(v, v.conj()) / float(np.real(np.vdot(v, v)))


def reference_unitary(rng, dim):
    Q, R = np.linalg.qr(_reference_ginibre(rng, dim, dim))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def reference_orthogonal_pair(rng, dim):
    U = reference_unitary(rng, dim)
    k = int(rng.integers(1, dim))
    ra = int(rng.integers(1, k + 1))
    rb = int(rng.integers(1, dim - k + 1))
    A, B = U[:, :k], U[:, k:]
    rho = A @ reference_mixed_hs(rng, k, ra) @ A.conj().T
    sigma = B @ reference_mixed_hs(rng, dim - k, rb) @ B.conj().T
    return rho, sigma


def reference_sample_pair(rng, dim, stratum):
    """One pair of a sampling stratum, as the sweep draws it."""
    if stratum == "faithful":
        return reference_mixed_hs(rng, dim, dim), reference_mixed_hs(rng, dim, dim)
    if stratum == "rank_deficient":
        r1 = int(rng.integers(1, dim))
        r2 = int(rng.integers(1, dim + 1))
        return reference_mixed_hs(rng, dim, r1), reference_mixed_hs(rng, dim, r2)
    if stratum == "pure":
        return reference_pure(rng, dim), reference_pure(rng, dim)
    return reference_orthogonal_pair(rng, dim)
