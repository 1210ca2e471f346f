"""Density-matrix construction, validation, and random sampling.

Includes the collinear ("telescoping") mixture a*rho + (1-a)*sigma, the
orthogonality test, and the seeded samplers the verification engine uses
(Haar-random pure states and Hilbert-Schmidt / Ginibre mixed states).
Each sampler is the one-matrix case of a stacked builder (``_ginibre``,
``_hs_states``, ``_pure_states``, ``_haar_frames``, ``_embed``), which
the sweep's draw applies to whole blocks; a stack gives each matrix the
bits it gets alone.
"""

from __future__ import annotations

import numpy as np

from .matfun import _as_pair, _checked, _psd_spectrum, check_hermitian

# Absolute tolerance on tr(rho sigma) for declaring orthogonality; the
# overlap of normalized states is scale-free, so this is independent of
# the rank cut.
EPS_ORTH = 1e-12

_TRACE_ATOL = 1e-10


def check_density(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD within tolerance, trace 1."""
    rho = check_hermitian(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _TRACE_ATOL:
        raise ValueError(f"trace must be 1, got {tr!r}")
    _psd_spectrum(rho)
    return rho


def pure_from_vector(v) -> np.ndarray:
    """Normalized rank-one projector v v* / <v, v>."""
    return _pure_states(np.asarray(v, dtype=complex).ravel()[None])[0]


def _pure_states(v: np.ndarray) -> np.ndarray:
    """v v* / <v, v> for each row of a stack of complex vectors (n, d).

    The norms are taken with ``np.vdot`` one vector at a time: a stacked
    norm may round the last bit differently.
    """
    ns = np.array([np.vdot(x, x).real for x in v])
    if not ns.all():
        raise ValueError("cannot build a pure state from the zero vector")
    return v[:, :, None] * v.conj()[:, None, :] / ns[:, None, None]


def qubit_pair_with_angle(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Two pure qubit states whose Bloch vectors subtend angle ``theta``.

    Their trace norm distance is |sin(theta/2)|.
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    sigma = np.array([[(1 + c) / 2, s / 2], [s / 2, (1 - c) / 2]], dtype=complex)
    return rho, sigma


def telescope_mix(rho, sigma, a: float) -> np.ndarray:
    """Collinear mixture a*rho + (1-a)*sigma pulling sigma toward rho."""
    rho, sigma = _as_pair(rho, sigma)
    _checked(a, "mixing parameter a")
    return a * rho + (1.0 - a) * sigma


def _ginibre(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Complex Gaussian matrices (n, rows, cols) from the rows of normal
    draws (n, 2 * rows * cols): the real parts, then the imaginary parts,
    each row-major, as two draws of shape (rows, cols) give them."""
    x = x.reshape(len(x), 2, rows, cols)
    return x[:, 0] + 1j * x[:, 1]


def _hs_states(G: np.ndarray) -> np.ndarray:
    """G G* / tr(G G*) for a stack of Ginibre matrices (n, d, r)."""
    M = G @ G.conj().swapaxes(-1, -2)
    return M / np.trace(M, axis1=-2, axis2=-1).real[:, None, None]


def _haar_frames(G: np.ndarray) -> np.ndarray:
    """Haar unitaries from the QR of a stack of square Ginibre matrices."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[:, None, :]


def _embed(V: np.ndarray, states: np.ndarray) -> np.ndarray:
    """V S V* for stacks of isometries (n, d, k) and states (n, k, k)."""
    return V @ states @ V.conj().swapaxes(-1, -2)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_frames(_ginibre(rng.standard_normal((1, 2 * dim * dim)), dim, dim))[0]


def haar_random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unitarily invariant random pure state (normalized Gaussian vector)."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return _pure_states(_ginibre(rng.standard_normal((1, 2 * dim)), 1, dim)[:, 0])[0]


def random_mixed_hs(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt (Ginibre) random state of the requested rank.

    G G*/tr(G G*) for a dim x rank complex Gaussian G; the result has the
    requested rank almost surely, and full rank gives a faithful state.
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in [1, {dim}], got {rank}")
    return _hs_states(_ginibre(rng.standard_normal((1, 2 * dim * rank)), dim, rank))[0]


def random_orthogonal_pair(
    dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two states supported on orthogonal subspaces of a Haar-random frame."""
    if dim < 2:
        raise ValueError("orthogonal pairs need dim >= 2")
    U = haar_unitary(dim, rng)[None]
    k = int(rng.integers(1, dim))
    ra = int(rng.integers(1, k + 1))
    rb = int(rng.integers(1, dim - k + 1))
    rho = _embed(U[..., :k], random_mixed_hs(k, ra, rng)[None])[0]
    sigma = _embed(U[..., k:], random_mixed_hs(dim - k, rb, rng)[None])[0]
    return rho, sigma


def is_orthogonal(rho, sigma):
    """True iff tr(rho sigma) <= EPS_ORTH (mutually orthogonal supports).

    One pair (d, d) gives a bool, a stack of pairs (N, d, d) an (N,) bool
    array with the one-pair answer per pair.
    """
    rho, sigma = _as_pair(rho, sigma)
    orthogonal = np.trace(rho @ sigma, axis1=-2, axis2=-1).real <= EPS_ORTH
    return orthogonal if rho.ndim == 3 else bool(orthogonal)


def state_to_jsonable(rho) -> dict:
    """JSON-ready form {"dim": n, "matrix": [[[re, im], ...], ...]} (row-major)."""
    rho = np.asarray(rho, dtype=complex)
    matrix = [
        [[float(z.real), float(z.imag)] for z in row] for row in rho
    ]
    return {"dim": int(rho.shape[0]), "matrix": matrix}


def state_from_jsonable(doc: dict) -> np.ndarray:
    """Parse a state from the JSON document formats accepted by the CLI.

    Exactly one of the keys "matrix", "diag", "pure", "bloch" must be
    present, with "dim" as the only other key allowed.  Parse errors name
    the offending field or key; the result is validated as a density
    matrix of dimension at least 2.
    """
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    unknown = [k for k in doc if k not in ("matrix", "diag", "pure", "bloch", "dim")]
    if unknown:
        raise ValueError(f"unknown keys in state document: {unknown}")
    forms = [k for k in ("matrix", "diag", "pure", "bloch") if k in doc]
    if len(forms) != 1:
        raise ValueError(
            'state document must contain exactly one of "matrix", "diag", '
            f'"pure", "bloch"; found {forms or "none"}'
        )
    kind = forms[0]
    try:
        if kind == "matrix":
            entries = np.asarray(doc["matrix"], dtype=float)
            if entries.ndim != 3 or entries.shape[2] != 2:
                raise ValueError(
                    'field "matrix" must be a square array of [re, im] pairs'
                )
            rho = entries[..., 0] + 1j * entries[..., 1]
            if rho.shape[0] != rho.shape[1]:
                raise ValueError('field "matrix" must be square')
        elif kind == "diag":
            d = np.asarray(doc["diag"], dtype=float)
            if d.ndim != 1 or d.size == 0:
                raise ValueError('field "diag" must be a nonempty list of reals')
            rho = np.diag(d).astype(complex)
        elif kind == "pure":
            entries = np.asarray(doc["pure"], dtype=float)
            if entries.ndim != 2 or entries.shape[1] != 2:
                raise ValueError('field "pure" must be a list of [re, im] pairs')
            rho = pure_from_vector(entries[:, 0] + 1j * entries[:, 1])
        else:  # bloch
            v = np.asarray(doc["bloch"], dtype=float)
            if v.shape != (3,):
                raise ValueError('field "bloch" must be a 3-vector [x, y, z]')
            if np.linalg.norm(v) > 1.0 + 1e-9:
                raise ValueError(
                    f'field "bloch" must have norm <= 1, got {np.linalg.norm(v):.6f}'
                )
            x, y, z = v
            rho = 0.5 * np.array(
                [[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex
            )
        if "dim" in doc and int(doc["dim"]) != rho.shape[0]:
            raise ValueError(
                f'field "dim" ({doc["dim"]}) does not match the matrix size ({rho.shape[0]})'
            )
    except (TypeError, KeyError) as exc:
        raise ValueError(f'malformed field "{kind}": {exc}') from exc
    if rho.shape[0] < 2:
        raise ValueError(f'field "{kind}" gives a 1x1 state; the dimension must be at least 2')
    try:
        return check_density(rho)
    except ValueError as exc:
        raise ValueError(f'field "{kind}" is not a valid density matrix: {exc}')
