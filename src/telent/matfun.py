"""Hermitian spectral toolkit.

Eigendecomposition with the PSD cutoff every quantity shares, support
projectors, the trace norm distance, and the divided-difference
derivative maps of the matrix logarithm and of fractional matrix powers.
Everything here is a pure function of its inputs: ``_psd_spectra``
decomposes every stack afresh.  What the quantities share of a pair's
spectra is kept by ``tre._Core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hermiticity tolerance for validating inputs (entrywise).
TOL_HERM = 1e-10

# Unit of the two spectral levels of a PSD matrix below, relative to its
# lambda_max.
_EPS_RANK = 2.0**-52
# The rank cut: eigenvalues at or below
# max(dim, _RANK_CUT_MIN_DIM) * _EPS_RANK * lambda_max are exact zeros.
# eigh leaves 2-4 * _EPS_RANK * lambda_max of roundoff on a kernel
# eigenvalue at every dim, which dim * _EPS_RANK alone hardly clears at
# small dim; such a spurious eigenvalue adds a rank and moves a closed
# form by O(1).
_RANK_CUT_MIN_DIM = 16
# The mixture floor, dim * _EPS_RANK * lambda_max, is the least eigenvalue
# the log of a telescoped mixture takes (``tre._Core.cells``): genuine
# mixture eigenvalues a * nu sink that low at deep a and must not count as
# kernel there.

# Relative gap below which divided differences switch to the midpoint
# derivative to avoid catastrophic cancellation.
_DD_NEAR = 1e-8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U* for per-eigenvalue scalars ``values``.

        Works on one decomposition or a stack of them, with ``values`` of
        the eigenvalues' shape.
        """
        U = self.eigenvectors
        return (U * values[..., None, :]) @ U.conj().swapaxes(-1, -2)


def hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X*) / 2."""
    X = np.asarray(X)
    return (X + X.conj().T) / 2


def check_hermitian(H) -> np.ndarray:
    """Validate that ``H`` is square, finite and Hermitian within ``TOL_HERM``.

    Raises ``ValueError`` naming the worst entry pair on violation.
    Returns the input as a complex ndarray.
    """
    return _hermitian_stack(np.asarray(H, dtype=complex)[None])[0]


def _as_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as complex arrays, which must have the same shape."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A, B


def _hermitian_stack(H) -> np.ndarray:
    """A stack of matrices (n, r, r) as a complex array, each validated.

    Each matrix must be square, nonempty, finite and Hermitian within
    ``TOL_HERM`` entrywise; the first invalid one raises, naming its worst
    entry pair.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 3 or H.shape[1] != H.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {H.shape[1:]}")
    if H.shape[1] == 0:
        raise ValueError("expected a nonempty matrix, got shape (0, 0)")
    # inf - inf would warn; the non-finite test below reports it instead
    with np.errstate(invalid="ignore"):
        delta = np.abs(H - H.conj().swapaxes(1, 2))
    # a non-finite entry makes its delta NaN or inf, so it fails this test
    valid = delta <= TOL_HERM
    if not valid.all():
        n = int(np.argmin(valid.all(axis=(1, 2))))
        i, j = divmod(int(np.argmax(delta[n])), H.shape[1])
        if not np.all(np.isfinite(H[n])):
            raise ValueError("matrix has non-finite entries")
        raise ValueError(
            f"matrix is not Hermitian: entries ({i},{j}) and ({j},{i}) "
            f"differ by {delta[n, i, j]:.3e} (tolerance {TOL_HERM:.1e})"
        )
    return H


def _psd_spectrum(A) -> tuple[SpectralDecomposition, np.ndarray]:
    """Decompose a PSD matrix with its numerical kernel set to exact zeros.

    ``_psd_spectra`` for one matrix, from a fresh eigh: every eigenvalue at
    or below the rank cut becomes exactly 0, so ``eigenvalues > 0`` masks
    the support.  Returns the decomposition and the uncut eigenvalues
    floored at the mixture floor.
    """
    dec, floored = _psd_spectra(np.asarray(A, dtype=complex)[None])
    return SpectralDecomposition(dec.eigenvalues[0], dec.eigenvectors[0]), floored[0]


def _psd_spectra(H) -> tuple[SpectralDecomposition, np.ndarray]:
    """PSD spectra of a stack of matrices, shape (n, r, r), with their
    uncut eigenvalues floored at the mixture floor, shape (n, r).

    Each matrix gets the validation of ``_hermitian_stack`` (the first
    invalid one raises its error) and the kernel cut of ``_psd_spectrum``,
    from a fresh stacked eigh, so a call's work never depends on earlier
    calls.

    Rejection uses the looser level dim * TOL_HERM * lambda_max: inputs
    pass as Hermitian with entrywise asymmetry up to TOL_HERM, which alone
    moves eigenvalues that far, and eigh roundoff on a zero eigenvalue can
    exceed the rank cut.  eigh on a stack returns per matrix the bits it
    returns for that matrix alone, so no value depends on what else is in
    the stack.  The first matrix that is not PSD raises, naming its least
    eigenvalue.
    """
    H = _hermitian_stack(H)
    lam, U = np.linalg.eigh(H)
    dim = H.shape[1]
    top = lam[:, -1]
    # max(top, 0.0) as Python takes it
    scale = np.where(0.0 > top, 0.0, top)
    bound = dim * TOL_HERM * scale
    negative = lam[:, 0] < -bound
    if negative.any():
        n = int(np.argmax(negative))
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {float(lam[n, 0]):.6e} "
            f"below -{float(bound[n]):.3e}"
        )
    floored = np.maximum(lam, (dim * _EPS_RANK * scale)[:, None])
    rank_cut = max(dim, _RANK_CUT_MIN_DIM) * _EPS_RANK * scale
    lam[lam <= rank_cut[:, None]] = 0.0
    return SpectralDecomposition(lam, U), floored


def support_basis(A) -> np.ndarray:
    """Orthonormal columns spanning the support of a PSD matrix."""
    dec, _ = _psd_spectrum(A)
    return dec.eigenvectors[:, dec.eigenvalues > 0.0]


def support_projector(A) -> np.ndarray:
    """Orthogonal projector onto the support of a PSD matrix.

    The rank is the number of eigenvalues above the rank cut.
    """
    V = support_basis(A)
    return V @ V.conj().T


def trace_norm_distance(rho, sigma):
    """Half the trace norm of rho - sigma.

    Shapes: ``rho`` and ``sigma`` share one shape, (d, d) for one pair,
    which returns a Python float, or (N, d, d) for a stack of N pairs,
    which returns an (N,) float array.  A stack's differences go to one
    stacked eigvalsh, which returns per matrix the bits of a single call,
    so every element is the one-pair value.

    For density-matrix inputs this equals the sum of positive eigenvalues
    of the difference and lies in [0, 1].
    """
    rho, sigma = _as_pair(rho, sigma)
    diff = rho - sigma
    one = diff.ndim != 3
    lam = np.linalg.eigvalsh(_hermitian_stack(diff[None] if one else diff))
    t = 0.5 * np.sum(np.abs(lam), axis=1)
    return float(t[0]) if one else t


def _positive_spectrum(A) -> SpectralDecomposition:
    """Decompose ``A`` and require it to be positive definite."""
    dec, _ = _psd_spectrum(A)
    if dec.eigenvalues[0] == 0.0:
        raise ValueError(
            "matrix is rank deficient within tolerance; compress to its "
            "support before applying the derivative map"
        )
    return dec


def _loewner_log(lam: np.ndarray) -> np.ndarray:
    """Divided-difference table of log on a positive spectrum.

    g(x, y) = (log x - log y)/(x - y), g(x, x) = 1/x.  Near-degenerate
    pairs use the midpoint derivative.
    """
    x = lam[:, None]
    y = lam[None, :]
    diff = x - y
    near = np.abs(diff) < _DD_NEAR * np.maximum(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.log1p(diff / y) / diff
    return np.where(near, 2.0 / (x + y), quot)


def _loewner_power(lam: np.ndarray, p: float) -> np.ndarray:
    """Divided-difference table of x**p on a positive spectrum.

    g(x, y) = (x^p - y^p)/(x - y), g(x, x) = p x^(p-1).
    """
    x = lam[:, None]
    y = lam[None, :]
    diff = x - y
    near = np.abs(diff) < _DD_NEAR * np.maximum(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        # x^p - y^p = y^p expm1(p log(x/y)), stable for small gaps
        quot = y**p * np.expm1(p * np.log1p(diff / y)) / diff
    mid = (x + y) / 2
    return np.where(near, p * mid ** (p - 1.0), quot)


def _apply_loewner(
    dec: SpectralDecomposition, G: np.ndarray, Delta: np.ndarray
) -> np.ndarray:
    U = dec.eigenvectors
    D = U.conj().T @ Delta @ U
    return hermitian_part(U @ (D * G) @ U.conj().T)


def frechet_log_map(A, Delta) -> np.ndarray:
    """Directional derivative of the matrix logarithm at ``A``.

    Returns d/dt log(A + t Delta) at t = 0, computed by divided
    differences on the spectrum of ``A``.  The map is linear and
    self-adjoint in Delta, preserves the PSD order, and sends A itself to
    the identity.  ``A`` must be positive definite; compress rank-deficient
    operators to their support first.
    """
    A, Delta = _as_pair(A, Delta)
    Delta = check_hermitian(Delta)
    dec = _positive_spectrum(A)
    return _apply_loewner(dec, _loewner_log(dec.eigenvalues), Delta)


def frechet_power_map(A, Delta, p: float) -> np.ndarray:
    """Directional derivative of the fractional power A -> A**p, 0 < p < 1.

    Returns d/dt (A + t Delta)**p at t = 0 via divided differences.
    Shares the structural properties of the logarithm map and sends
    A**(1-p) to p times the identity for positive definite ``A``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"power order p must lie in (0, 1), got {p}")
    A, Delta = _as_pair(A, Delta)
    Delta = check_hermitian(Delta)
    dec = _positive_spectrum(A)
    return _apply_loewner(dec, _loewner_power(dec.eigenvalues, p), Delta)
