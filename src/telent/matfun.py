"""Hermitian spectral toolkit.

Eigendecomposition with the PSD cutoff every quantity shares, support
projectors, the trace norm distance, and the divided-difference
derivative maps of the matrix logarithm and of fractional matrix powers.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Hermiticity tolerance for validating inputs (entrywise).
TOL_HERM = 1e-10

# Numerical-rank epsilon per dimension: eigenvalues of a PSD matrix at or
# below dim * _EPS_RANK * lambda_max are treated as exact zeros.
_EPS_RANK = 2.0**-52

# Relative gap below which divided differences switch to the midpoint
# derivative to avoid catastrophic cancellation.
_DD_NEAR = 1e-8

# Number of distinct matrices whose PSD spectra ``_psd_spectrum`` keeps.
_SPECTRUM_CACHE_SIZE = 8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U* for per-eigenvalue scalars ``values``."""
        return (self.eigenvectors * values) @ self.eigenvectors.conj().T


def hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X*) / 2."""
    X = np.asarray(X)
    return (X + X.conj().T) / 2


def check_hermitian(H) -> np.ndarray:
    """Validate that ``H`` is square, finite and Hermitian within ``TOL_HERM``.

    Raises ``ValueError`` naming the worst entry pair on violation.
    Returns the input as a complex ndarray.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    # inf - inf would warn; the non-finite test below reports it instead
    with np.errstate(invalid="ignore"):
        delta = np.abs(H - H.conj().T)
    k = int(np.argmax(delta))
    i, j = divmod(k, H.shape[0])
    # a non-finite entry makes its delta NaN or inf, so it fails this test
    if not delta[i, j] <= TOL_HERM:
        if not np.all(np.isfinite(H)):
            raise ValueError("matrix has non-finite entries")
        raise ValueError(
            f"matrix is not Hermitian: entries ({i},{j}) and ({j},{i}) "
            f"differ by {delta[i, j]:.3e} (tolerance {TOL_HERM:.1e})"
        )
    return H


def _as_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as complex arrays, which must have the same shape."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A, B


def spectral_decompose(H) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    lam, U = np.linalg.eigh(check_hermitian(H))
    return SpectralDecomposition(lam, U)


def _psd_spectrum(A) -> tuple[SpectralDecomposition, float]:
    """Decompose a PSD matrix with its numerical kernel set to exact zeros.

    Every eigenvalue at or below the rank cutoff dim * 2**-52 * lambda_max
    becomes exactly 0, so ``eigenvalues > 0`` masks the support.  Returns
    the decomposition and the cutoff.  Rejection uses the looser level
    dim * TOL_HERM * lambda_max: inputs pass as Hermitian with entrywise
    asymmetry up to TOL_HERM, which alone moves eigenvalues that far, and
    eigh roundoff on a zero eigenvalue can exceed the rank cutoff.

    Results are memoised on the exact bytes of the input as a complex
    array, so a matrix is decomposed once while it stays among the
    ``_SPECTRUM_CACHE_SIZE`` (8) most recently used distinct inputs; an
    entry holds about twice the matrix, some 130 KB at dim 64.  Equal
    bytes give an identical eigh result, so a hit returns exactly what a
    fresh call would.  Every miss runs the full validation and an input
    that raises is never stored, so invalid input raises on every call.
    The cached eigenvalue and eigenvector arrays are read-only; callers
    that hand arrays out must derive new ones from them.
    """
    H = np.asarray(A, dtype=complex)
    return _psd_spectrum_of_bytes(H.shape, H.tobytes())


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _psd_spectrum_of_bytes(
    shape: tuple[int, ...], data: bytes
) -> tuple[SpectralDecomposition, float]:
    dec = spectral_decompose(np.frombuffer(data, dtype=complex).reshape(shape))
    lam = dec.eigenvalues
    scale = max(float(lam[-1]), 0.0)
    bound = dec.dim * TOL_HERM * scale
    if lam[0] < -bound:
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {lam[0]:.6e} "
            f"below -{bound:.3e}"
        )
    cut = dec.dim * _EPS_RANK * scale
    lam[lam <= cut] = 0.0
    lam.flags.writeable = False
    dec.eigenvectors.flags.writeable = False
    return dec, cut


def support_basis(A) -> np.ndarray:
    """Orthonormal columns spanning the support of a PSD matrix."""
    dec, _ = _psd_spectrum(A)
    return dec.eigenvectors[:, dec.eigenvalues > 0.0]


def support_projector(A) -> np.ndarray:
    """Orthogonal projector onto the support of a PSD matrix.

    The rank is the number of eigenvalues above the rank cutoff.
    """
    V = support_basis(A)
    return V @ V.conj().T


def trace_norm_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma.

    For density-matrix inputs this equals the sum of positive eigenvalues
    of the difference and lies in [0, 1].
    """
    rho, sigma = _as_pair(rho, sigma)
    lam = np.linalg.eigvalsh(check_hermitian(rho - sigma))
    return 0.5 * float(np.sum(np.abs(lam)))


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
