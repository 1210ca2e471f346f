"""Telescopic relative entropy.

The normalized quantity S(rho || a*rho + (1-a)*sigma) / (-log a), its
closed-form limits at a -> 0 and a -> 1, the exact pure-state formula,
and the entropy quantities it is built from and checked against (von
Neumann entropy, relative entropy with support semantics, binary
entropy, and the two-state Holevo quantity).

All entropies are natural-log (nats).  The telescopic quantities are
dimensionless ratios and independent of the log base.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .matfun import (
    SpectralDecomposition,
    _as_pair,
    _hermitian_stack,
    _psd_spectra,
    _read_only,
)

# Mass of rho allowed outside the support of sigma before the relative
# entropy is declared infinite.
EPS_SUPP = 1e-10

# Entropy values in [-_NEG_CLAMP, 0) are roundoff and clamped to zero.
_NEG_CLAMP = 1e-10

# Number of pairs whose one-pair results ``_pair_core`` keeps, and of
# telescoping parameters per pair whose mixtures a core keeps.
_PAIR_CORES = 2
_CORE_MIXTURES = 8


def _clamp_entropy(value):
    """0.0 for values in [-_NEG_CLAMP, 0); elementwise on an array."""
    if isinstance(value, float):
        return 0.0 if -_NEG_CLAMP <= value < 0.0 else value
    return np.where((-_NEG_CLAMP <= value) & (value < 0.0), 0.0, value)


def _rank_groups(lam: np.ndarray):
    """(rank, indices) for each support rank of a stack of cut spectra.

    ``lam`` is (n, d) with its kernel exactly 0; the ranks come in order of
    first appearance, the indices of each in increasing order.
    """
    ranks = (lam > 0.0).sum(axis=1)
    for rank in dict.fromkeys(ranks.tolist()):
        yield rank, (ranks == rank).nonzero()[0]


def _support(U: np.ndarray, rows: np.ndarray, rank: int) -> np.ndarray:
    """The supports of the given rows of a stack of cut spectra, all of
    rank ``rank``: eigenvalues ascend, so they are the last ``rank``
    eigenvector columns.  They are made contiguous like ``support_basis``,
    as BLAS may round a strided operand differently."""
    return np.ascontiguousarray(U[rows, :, U.shape[-1] - rank :])


def _sum_xlogx(lam: np.ndarray) -> np.ndarray:
    """sum lambda_i log lambda_i per row of cut spectra (n, d), 0 log 0 = 0.

    A cut spectrum's positive entries are its last ``rank`` ones, and each
    rank group sums that suffix along its rows.  That gives every row the
    bits of a sum over its positive entries alone, which a zero-padded sum
    does not from d = 8 on, where numpy's pairwise summation changes regime.
    """
    out = np.empty(len(lam))
    for rank, rows in _rank_groups(lam):
        pos = lam[rows, lam.shape[1] - rank :]
        out[rows] = np.sum(pos * np.log(pos), axis=1)
    return out


def _entropies(states: np.ndarray) -> np.ndarray:
    """``von_neumann_entropy`` of each matrix of a stack (n, d, d)."""
    return _clamp_entropy(-_sum_xlogx(_psd_spectra(states)[0].eigenvalues))


def von_neumann_entropy(rho) -> float:
    """- tr rho log rho; zero for pure states, log(dim) for maximally mixed."""
    return float(_entropies(np.asarray(rho)[None])[0])


def relative_entropy(rho, sigma) -> float:
    """tr rho (log rho - log sigma), +inf outside the support of sigma.

    The value is infinite when rho carries more than ``EPS_SUPP`` mass on
    the kernel of sigma; otherwise both operators are compressed to the
    support of sigma and the result is finite and nonnegative.
    """
    rho, sigma = _as_pair(rho, sigma)
    (value,) = _relative_entropies([rho[None]], sigma[None], [np.ones(1, dtype=bool)])
    return float(value[0])


def _relative_entropies(states, sigma, used) -> list[np.ndarray]:
    """``relative_entropy`` of each stack in ``states`` against ``sigma``.

    ``states`` holds (N, d, d) stacks and ``used`` an (N,) mask for each;
    pair i of a stack is compared with sigma[i] where its mask is true and
    gets 0.0 elsewhere.  Per pair the support of sigma, the compression of
    sigma to it and the log of that compression are computed once, and
    only if some used state stays inside the support.  Pairs are grouped
    by the rank of that support, in order of first appearance; a group is
    compressed in one stacked product, and its compressed sigmas are
    decomposed in one eigh without the PSD cut.  Each element follows the
    one-pair sequence, so its value is the one-pair value bit for bit.
    """
    n = len(sigma)
    dec, _ = _psd_spectra(sigma)
    inside = [np.zeros(n, dtype=bool) for _ in states]
    cross = [np.zeros(n) for _ in states]
    for rank, pairs in _rank_groups(dec.eigenvalues):
        V = _support(dec.eigenvectors, pairs, rank)
        Vh = V.conj().swapaxes(-1, -2)
        compressed = [Vh @ state[pairs] @ V for state in states]
        for state_c, use, ins in zip(compressed, used, inside):
            leak = 1.0 - np.trace(state_c, axis1=1, axis2=2).real
            ins[pairs] = use[pairs] & ~(leak > EPS_SUPP)
        need = np.logical_or.reduce([ins[pairs] for ins in inside])
        if not need.any():
            continue
        sig_c = _hermitian_stack((Vh @ sigma[pairs] @ V)[need])
        sig_dec = SpectralDecomposition(*np.linalg.eigh(sig_c))
        log_sig = sig_dec.apply(np.log(sig_dec.eigenvalues))
        for state_c, ins, out in zip(compressed, inside, cross):
            sel = ins[pairs]
            product = state_c[sel] @ log_sig[sel[need]]
            out[pairs[sel]] = np.trace(product, axis1=1, axis2=2).real
    values = []
    for state, use, ins, out in zip(states, used, inside, cross):
        value = np.where(use, np.inf, 0.0)
        if ins.any():
            xlogx = _sum_xlogx(_psd_spectra(state[ins])[0].eigenvalues)
            value[ins] = _clamp_entropy(xlogx - out[ins])
        values.append(value)
    return values


def telescopic_relative_entropy(rho, sigma, a):
    """S(rho || a*rho + (1-a)*sigma) / (-log a), valued in [0, 1].

    Shapes: ``rho`` and ``sigma`` share one shape, (d, d) for one pair or
    (N, d, d) for a stack of N pairs.  ``a`` is a scalar, a (K,) grid for
    every pair, or (N, K) with a row per pair: its last axis indexes
    telescoping parameters and its other axes broadcast against the stack
    as in numpy.  For one pair the result has the shape of ``a``; for a
    stack it has shape broadcast((N, 1), a.shape), or (N,) when ``a`` is a
    scalar.  One pair with a scalar ``a`` returns a Python float, anything
    else a float ndarray.  Every element is bit for bit the value of the
    one-pair, scalar-``a`` call: pairs are grouped by the rank of their
    joint support and each group's compressed mixtures are decomposed in
    one stacked eigh, which returns per matrix what a single call returns
    (the test suite checks this against a scalar reference).  Those
    mixtures are held at once, about K times the size of the input, so a
    caller with a large stack passes it in blocks, as ``run_fuzz`` does.
    Only the one-pair, scalar-``a`` call reads and fills the pair's core
    (``_pair_core``); anything else takes every spectrum from stacked eigh
    calls, so its work does not depend on earlier calls.

    Always finite: the mixture dominates a*rho, so rho never leaves its
    support.  The endpoints a = 0 and a = 1 dispatch to the closed-form
    limits, element by element.  The value is 0 iff rho = sigma (for
    a > 0) and 1 iff the two states are orthogonal.

    The mixture is strictly positive on the joint support of the pair, so
    instead of the generic support-containment test the computation
    compresses there and floors the mixture's eigenvalues at the spectral
    noise level.  That keeps the value finite and accurate even for
    telescoping parameters as extreme as 1e-11, where genuine mixture
    eigenvalues a*nu sink below the relative rank cut and a support
    test would misclassify them.
    """
    grid = np.asarray(a, dtype=float)
    for x in grid.ravel().tolist():
        if not 0.0 <= x <= 1.0:
            bad = a if grid.ndim == 0 else x
            raise ValueError(f"telescoping parameter a must lie in [0, 1], got {bad}")
    if grid.ndim > 2:
        raise ValueError(
            f"telescoping parameters must have at most 2 axes, got shape {grid.shape}"
        )
    rho, sigma = _as_pair(rho, sigma)
    if rho.ndim == 2 and grid.ndim == 0:
        # one pair at one a: the same steps without the stack bookkeeping
        return _pair_value(rho, sigma, float(grid))
    if rho.ndim == 3:
        shape = (len(rho),)
        if grid.ndim:
            shape = np.broadcast_shapes((len(rho), 1), grid.shape)
        grid = np.broadcast_to(grid, shape).reshape(len(rho), -1)
    else:
        shape = grid.shape
        rho, sigma, grid = rho[None], sigma[None], grid.reshape(1, -1)
    values = _stack_values(rho, sigma, grid)
    return values.reshape(shape) if shape else float(values[0, 0])


def _compress(V, rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Both states compressed to the range of the orthonormal columns V;
    one pair or a stack of them."""
    Vh = V.conj().swapaxes(-1, -2)
    return Vh @ rho @ V, Vh @ sigma @ V


def _limits(states, dec: SpectralDecomposition) -> np.ndarray:
    """1 - tr rho P per pair of a stack, P = V V* the projector onto the
    support of the matching cut spectrum of ``dec``.

    One stacked product per support rank; each element is the one-pair
    value bit for bit.
    """
    traces = np.empty(len(states))
    for rank, rows in _rank_groups(dec.eigenvalues):
        V = _support(dec.eigenvectors, rows, rank)
        P = V @ V.conj().swapaxes(-1, -2)
        traces[rows] = np.trace(states[rows] @ P, axis1=1, axis2=2).real
    return _clamp_entropy(1.0 - traces)


def _mixture_spectra(rho_c, sig_c, a) -> tuple[SpectralDecomposition, np.ndarray]:
    """PSD spectra of the compressed mixtures a*rho_c + (1-a)*sig_c of n
    cells (n, r, r) at their a-values (n,), with their uncut eigenvalues
    floored at the mixture floor; one stacked eigh."""
    a_c = a[:, None, None]
    return _psd_spectra(a_c * rho_c + (1.0 - a_c) * sig_c)


def _cross_terms(rho_c, tau) -> np.ndarray:
    """tr rho_c log tau_c for n cells: the compressed states (n, r, r) and
    the mixture spectra ``tau`` of ``_mixture_spectra``.  The log takes the
    floored eigenvalues."""
    dec, floored = tau
    log_tau = dec.apply(np.log(floored))
    return np.trace(rho_c @ log_tau, axis1=1, axis2=2).real


def _in_basis(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """U* V per pair of a stack: the columns of V in the eigenbasis U."""
    return U.conj().swapaxes(-1, -2) @ V


def _overlap_weights(rho_in_V: np.ndarray, U_tau: np.ndarray) -> np.ndarray:
    """|(U_rho* V U_tau_c)_ij|^2 per cell, from U_rho* V and the
    eigenvectors of the compressed mixture."""
    M = rho_in_V @ U_tau
    return M.real**2 + M.imag**2


def _ratio(xlogx, cross, neg_log):
    """(sum rho log rho - tr rho_c log tau_c) / (-log a), clamped."""
    return _clamp_entropy(_clamp_entropy(xlogx - cross) / neg_log)


class _Group(NamedTuple):
    """The interior cells of one joint-support rank group of a grid."""

    group: np.ndarray  # the group's positions among the rows with interior cells
    V: np.ndarray  # the joint support of each of its pairs (n, d, r)
    j: np.ndarray  # per cell, its pair's position in the group
    k: np.ndarray  # per cell, its column of the grid
    rho_c: np.ndarray  # per cell, rho compressed to the joint support
    tau: tuple  # per cell, the spectra of ``_mixture_spectra``


def _interior_rows(grid):
    """The mask of interior cells (0 < a < 1) of an (N, K) grid and the
    rows that hold one."""
    interior = (grid > 0.0) & (grid < 1.0)
    return interior, np.flatnonzero(interior.any(axis=1))


def _mixture_groups(rho, sigma, grid, interior, rows):
    """Per joint-support rank, in order of first appearance, the compressed
    mixtures of the interior cells of ``rows`` (see ``_Group``).

    The joint supports of ``rows`` are one stacked eigh, and each group's
    mixtures, in row-major order, are one more.  Inside a sweep block the
    store hands every spectrum of a second pass over the same stacks and
    grid back without an eigh.
    """
    dec, _ = _psd_spectra((rho[rows] + sigma[rows]) / 2.0)
    for rank, group in _rank_groups(dec.eigenvalues):
        pairs = rows[group]
        V = _support(dec.eigenvectors, group, rank)
        rho_c, sig_c = _compress(V, rho[pairs], sigma[pairs])
        j, k = np.nonzero(interior[pairs])
        tau = _mixture_spectra(rho_c[j], sig_c[j], grid[pairs[j], k])
        yield _Group(group, V, j, k, rho_c[j], tau)


def _stack_values(rho, sigma, grid) -> np.ndarray:
    """S_a of N pairs (N, d, d) at an (N, K) grid of a-values.

    Every spectrum comes from a stacked eigh, in this order: sigma of the
    rows with an a = 0 cell and rho of the rows with an a = 1 cell (one
    closed form per row); the mixtures of ``_mixture_groups``; then rho.
    The order decides which invalid matrix raises first.  Each element
    follows the one-pair sequence, so its value is the one-pair value bit
    for bit.
    """
    values = np.empty(grid.shape)
    for end, state, other in ((0.0, rho, sigma), (1.0, sigma, rho)):
        at_end = grid == end
        rows = np.flatnonzero(at_end.any(axis=1))
        if rows.size:
            limits = np.empty(len(rho))
            limits[rows] = _limits(state[rows], _psd_spectra(other[rows])[0])
            i, k = np.nonzero(at_end)
            values[i, k] = limits[i]
    interior, rows = _interior_rows(grid)
    if not rows.size:
        return values
    cross, neg_log = np.empty((2, *grid.shape))
    for cells in _mixture_groups(rho, sigma, grid, interior, rows):
        i, k = rows[cells.group][cells.j], cells.k
        cross[i, k], neg_log[i, k] = _cross_terms(cells.rho_c, cells.tau), -np.log(grid[i, k])
    xlogx = np.empty(len(rho))
    xlogx[rows] = _sum_xlogx(_psd_spectra(rho[rows])[0].eigenvalues)
    i, k = np.nonzero(interior)
    values[i, k] = _ratio(xlogx[i], cross[i, k], neg_log[i, k])
    return values


class _Joint(NamedTuple):
    """What S_a and the overlaps take from a pair, from one stacked eigh of
    rho and (rho+sigma)/2, whose support V is the joint support."""

    rho: SpectralDecomposition  # the PSD spectrum of rho, a stack of one
    xlogx: np.floating  # sum lambda log lambda of rho
    rho_c: np.ndarray  # rho compressed to V, shape (1, r, r)
    sig_c: np.ndarray  # sigma compressed to V
    rho_in_V: np.ndarray  # U_rho* V, shape (1, d, r)


class _Mixture(NamedTuple):
    """What a pair's calls take from its compressed mixture at one a."""

    cross: np.floating  # tr rho_c log tau_c
    mu: np.ndarray  # the cut eigenvalues of tau_c, shape (1, r)
    weights: np.ndarray  # |(U_rho* V U_tau_c)_ij|^2, shape (1, d, r)


class _PairCore:
    """What the one-pair calls on one pair (rho, sigma) derive from it.

    Each part is computed on first use: ``sigma``, the PSD spectrum of
    sigma, which only S_0 reads; ``joint`` (see ``_Joint``); and
    ``mixture(a)``, which decomposes the compressed mixture at a once and
    keeps what S_a and the overlaps take from it for the last
    ``_CORE_MIXTURES`` values of a.  Each part is made by the code the
    stacked calls run, on stacks of one, so every value is the stacked
    value bit for bit.  Every array is read-only.
    """

    def __init__(self, rho: np.ndarray, sigma: np.ndarray) -> None:
        self._pair = rho, sigma
        self._mixtures: dict[float, _Mixture] = {}

    @functools.cached_property
    def sigma(self) -> SpectralDecomposition:
        dec, _ = _psd_spectra(self._pair[1][None])
        _read_only(dec.eigenvalues, dec.eigenvectors)
        return dec

    @functools.cached_property
    def joint(self) -> _Joint:
        rho, sigma = self._pair
        dec, _ = _psd_spectra(np.stack([rho, (rho + sigma) / 2.0]))
        # copies, so the core does not hold the spectrum of (rho+sigma)/2
        lam, U = dec.eigenvalues[:1].copy(), dec.eigenvectors[:1].copy()
        ((rank, rows),) = _rank_groups(dec.eigenvalues[1:])
        V = _support(dec.eigenvectors[1:], rows, rank)
        (xlogx,) = _sum_xlogx(lam)
        rho_c, sig_c = _compress(V, rho[None], sigma[None])
        rho_in_V = _in_basis(U, V)
        _read_only(lam, U, rho_c, sig_c, rho_in_V)
        return _Joint(SpectralDecomposition(lam, U), xlogx, rho_c, sig_c, rho_in_V)

    def mixture(self, a: float) -> _Mixture:
        """The compressed mixture a*rho_c + (1-a)*sig_c, kept in use order."""
        found = self._mixtures.pop(a, None)
        if found is None:
            joint = self.joint
            tau = _mixture_spectra(joint.rho_c, joint.sig_c, np.array([a]))
            (cross,) = _cross_terms(joint.rho_c, tau)
            dec, _ = tau
            weights = _overlap_weights(joint.rho_in_V, dec.eigenvectors)
            found = _Mixture(cross, dec.eigenvalues, weights)
            _read_only(dec.eigenvalues, weights)
            if len(self._mixtures) == _CORE_MIXTURES:
                del self._mixtures[next(iter(self._mixtures))]
        self._mixtures[a] = found
        return found


# The kept cores, most recently used first, each with its key: the shape
# and the bytes of both states.  A linear scan compares keys by memcmp,
# where a dict would hash every byte of the inputs on every call.
_CORES: list[tuple[tuple, _PairCore]] = []


def _pair_core(rho: np.ndarray, sigma: np.ndarray) -> _PairCore:
    """The core of a pair of complex arrays of one shape.

    Kept for the last ``_PAIR_CORES`` distinct pairs, keyed on the shape
    and the exact bytes of both, so each part of a pair's core is computed
    once while the pair stays among them, and every value is the one a
    fresh core gives.  A core reads its states from the key's bytes, so a
    later change to the caller's arrays cannot reach it.  A part whose
    input fails validation is never kept, so it raises on every call.
    """
    key = (rho.shape, rho.tobytes(), sigma.tobytes())
    for i, (kept, core) in enumerate(_CORES):
        if kept == key:
            _CORES.insert(0, _CORES.pop(i))
            return core
    core = _PairCore(*(np.frombuffer(data, dtype=complex).reshape(rho.shape) for data in key[1:]))
    _CORES.insert(0, (key, core))
    del _CORES[_PAIR_CORES:]
    return core


def _pair_value(rho, sigma, a: float) -> float:
    """S_a of one pair at one a, from the pair's core."""
    core = _pair_core(rho, sigma)
    if a == 0.0:
        return float(_limits(rho[None], core.sigma)[0])
    if a == 1.0:
        return float(_limits(sigma[None], core.joint.rho)[0])
    (neg_log,) = -np.log(np.array([a]))
    return float(_ratio(core.joint.xlogx, core.mixture(a).cross, neg_log))


def tre_limit_zero(rho, sigma) -> float:
    """a -> 0 limit: 1 - tr rho {sigma}.

    Zero whenever sigma is faithful; 1 - tr rho sigma when sigma is pure.
    """
    rho, sigma = _as_pair(rho, sigma)
    return _pair_value(rho, sigma, 0.0)


def tre_limit_one(rho, sigma) -> float:
    """a -> 1 limit: 1 - tr sigma {rho}.  Zero whenever rho is faithful."""
    rho, sigma = _as_pair(rho, sigma)
    return _pair_value(rho, sigma, 1.0)


def tre_pure_closed_form(t: float, a: float) -> float:
    """Exact value for two pure states with trace norm distance ``t``.

    With w = 4a(1-a)t^2,

        (1/(-2 log a)) * (-log(w/4)
            - ((1 - w/(2a)) / sqrt(1-w)) * log((1+sqrt(1-w))/(1-sqrt(1-w)))).

    The w = 1 singularity (orthogonal states at a = 1/2) is removable and
    evaluated by series; the log ratio is computed as log((1+u)^2/w) to
    stay stable as w -> 0.  Both endpoint limits a -> 0, 1 converge to t^2.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"trace norm distance t must lie in [0, 1], got {t}")
    if not 0.0 < a < 1.0:
        raise ValueError(f"telescoping parameter a must lie in (0, 1), got {a}")
    w = min(4.0 * a * (1.0 - a) * t * t, 1.0)
    if w == 0.0:
        # t = 0 exactly, or so small that w underflows; the value is 0 at
        # double precision either way
        return 0.0
    u = np.sqrt(1.0 - w)
    c = 1.0 - w / (2.0 * a)
    if u < 1e-6:
        second = 2.0 * c * (1.0 + u * u / 3.0)
    else:
        second = (c / u) * np.log((1.0 + u) ** 2 / w)
    value = (-np.log(w / 4.0) - second) / (-2.0 * np.log(a))
    return max(float(value), 0.0)


def binary_entropy(p: float) -> float:
    """-p log p - (1-p) log(1-p) in nats; zero at both endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log(p) - (1.0 - p) * np.log1p(-p))


def _ensemble(p, rho, sigma):
    """The Holevo functions' inputs as stacks: (w, rho, sigma, mix, one).

    ``p`` is checked and broadcast to one weight per pair, ``mix`` is
    w*rho + (1-w)*sigma per pair, and ``one`` marks a one-pair call, whose
    inputs become stacks of one.
    """
    w = np.asarray(p, dtype=float)
    for x in w.ravel().tolist():
        if not 0.0 <= x <= 1.0:
            bad = p if w.ndim == 0 else x
            raise ValueError(f"probability must lie in [0, 1], got {bad}")
    rho, sigma = _as_pair(rho, sigma)
    one = rho.ndim != 3
    if one:
        rho, sigma = rho[None], sigma[None]
    w = np.broadcast_to(w, (len(rho),))
    w_c = w.reshape((-1,) + (1,) * (rho.ndim - 1))
    return w, rho, sigma, w_c * rho + (1.0 - w_c) * sigma, one


def holevo_two(p, rho, sigma):
    """Holevo quantity of the two-state ensemble {(p, rho), (1-p, sigma)}.

    S(p rho + (1-p) sigma) - p S(rho) - (1-p) S(sigma); bounded above by
    the binary entropy h(p) and, more sharply, by h(p) times the trace
    norm distance of the pair.

    Shapes: ``rho`` and ``sigma`` share one shape, (d, d) for one pair or
    (N, d, d) for a stack of N pairs; ``p`` is a scalar or an (N,) array
    with one probability per pair.  One pair returns a Python float, a
    stack an (N,) float array whose elements are the one-pair values bit
    for bit.  A stack's mixtures, rho and sigma are decomposed as three
    stacks, which a sweep block shares through its store with ``S_a`` and
    ``holevo_two_via_relative``.
    """
    w, rho, sigma, mix, one = _ensemble(p, rho, sigma)
    value = _clamp_entropy(
        _entropies(mix) - w * _entropies(rho) - (1.0 - w) * _entropies(sigma)
    )
    return float(value[0]) if one else value


def holevo_two_via_relative(p, rho, sigma):
    """Same quantity as weighted relative entropies against the mixture.

    p S(rho||mix) + (1-p) S(sigma||mix); zero-weight terms are skipped so
    the p = 0, 1 endpoints avoid 0 * inf.  Both terms share one
    decomposition of the mixture compressed to its support.

    Shapes as for ``holevo_two``.  A stack's pairs are grouped by the rank
    of the mixture's support; the mixtures, rho and sigma are decomposed
    as whole stacks, which a sweep block takes from its store.
    """
    w, rho, sigma, mix, one = _ensemble(p, rho, sigma)
    weights = (w, 1.0 - w)
    used = [weight > 0.0 for weight in weights]
    s_rho, s_sigma = _relative_entropies((rho, sigma), mix, used)
    # as Python's sum of the used terms: 0.0 first, and a skipped term adds 0.0
    value = _clamp_entropy(0.0 + weights[0] * s_rho + weights[1] * s_sigma)
    return float(value[0]) if one else value
