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

import numpy as np

from .matfun import (
    SpectralDecomposition,
    _as_pair,
    _hermitian_stack,
    _psd_spectra,
    _psd_spectrum,
    support_basis,
)

# Mass of rho allowed outside the support of sigma before the relative
# entropy is declared infinite.
EPS_SUPP = 1e-10

# Entropy values in [-_NEG_CLAMP, 0) are roundoff and clamped to zero.
_NEG_CLAMP = 1e-10


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


def _entropies(states: np.ndarray, memo: bool) -> np.ndarray:
    """``von_neumann_entropy`` of each matrix of a stack (n, d, d)."""
    return _clamp_entropy(-_sum_xlogx(_psd_spectra(states, memo)[0].eigenvalues))


def von_neumann_entropy(rho) -> float:
    """- tr rho log rho; zero for pure states, log(dim) for maximally mixed."""
    return float(_entropies(np.asarray(rho)[None], memo=True)[0])


def relative_entropy(rho, sigma) -> float:
    """tr rho (log rho - log sigma), +inf outside the support of sigma.

    The value is infinite when rho carries more than ``EPS_SUPP`` mass on
    the kernel of sigma; otherwise both operators are compressed to the
    support of sigma and the result is finite and nonnegative.
    """
    rho, sigma = _as_pair(rho, sigma)
    (value,) = _relative_entropies([rho[None]], sigma[None], [np.ones(1, dtype=bool)], memo=True)
    return float(value[0])


def _relative_entropies(states, sigma, used, memo: bool) -> list[np.ndarray]:
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
    dec, _ = _psd_spectra(sigma, memo)
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
            xlogx = _sum_xlogx(_psd_spectra(state[ins], memo)[0].eigenvalues)
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
    Only the one-pair, scalar-``a`` call reads and fills the spectrum memo
    of ``matfun``; anything else takes every spectrum from stacked eigh
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
    eigenvalues a*nu sink below the relative rank cutoff and a support
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


def _cross_terms(rho_c, sig_c, a) -> tuple[np.ndarray, np.ndarray]:
    """tr rho_c log tau_c and -log a for n compressed pairs (n, r, r) at
    their interior a-values (n,).

    The mixtures tau_c are decomposed in one stacked eigh and their
    eigenvalues floored at the rank cutoff.
    """
    a_c = a[:, None, None]
    dec, floor = _psd_spectra(a_c * rho_c + (1.0 - a_c) * sig_c)
    log_tau = dec.apply(np.log(np.maximum(dec.eigenvalues, floor[:, None])))
    return np.trace(rho_c @ log_tau, axis1=1, axis2=2).real, -np.log(a)


def _ratio(xlogx, cross, neg_log):
    """(sum rho log rho - tr rho_c log tau_c) / (-log a), clamped."""
    return _clamp_entropy(_clamp_entropy(xlogx - cross) / neg_log)


def _pair_value(rho, sigma, a: float) -> float:
    """S_a of one pair at one a, with its spectra from the memo."""
    if a == 0.0:
        return tre_limit_zero(rho, sigma)
    if a == 1.0:
        return tre_limit_one(rho, sigma)
    rho_c, sig_c = _compress(support_basis((rho + sigma) / 2.0), rho, sigma)
    (cross,), (neg_log,) = _cross_terms(rho_c[None], sig_c[None], np.array([a]))
    (xlogx,) = _sum_xlogx(_psd_spectrum(rho)[0].eigenvalues[None])
    return float(_ratio(xlogx, cross, neg_log))


def _stack_values(rho, sigma, grid) -> np.ndarray:
    """S_a of N pairs (N, d, d) at an (N, K) grid of a-values.

    Every spectrum comes from a stacked eigh, none from the memo, in this
    order: sigma of the rows with an a = 0 cell and rho of the rows with
    an a = 1 cell (one closed form per row); the joint supports of the
    rows with an interior cell; per joint-support rank, in order of first
    appearance, the compressed mixtures of the group's interior cells in
    row-major order; then rho.  The order decides which invalid matrix
    raises first.  Each element follows the one-pair sequence, so its
    value is the one-pair value bit for bit.
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
    interior = (grid > 0.0) & (grid < 1.0)
    rows = np.flatnonzero(interior.any(axis=1))
    if not rows.size:
        return values
    dec, _ = _psd_spectra((rho[rows] + sigma[rows]) / 2.0)
    cross, neg_log = np.empty((2, *grid.shape))
    for rank, group in _rank_groups(dec.eigenvalues):
        pairs = rows[group]
        V = _support(dec.eigenvectors, group, rank)
        rho_c, sig_c = _compress(V, rho[pairs], sigma[pairs])
        j, k = np.nonzero(interior[pairs])
        i = pairs[j]
        cross[i, k], neg_log[i, k] = _cross_terms(rho_c[j], sig_c[j], grid[i, k])
    xlogx = np.empty(len(rho))
    xlogx[rows] = _sum_xlogx(_psd_spectra(rho[rows])[0].eigenvalues)
    i, k = np.nonzero(interior)
    values[i, k] = _ratio(xlogx[i], cross[i, k], neg_log[i, k])
    return values


def tre_limit_zero(rho, sigma) -> float:
    """a -> 0 limit: 1 - tr rho {sigma}.

    Zero whenever sigma is faithful; 1 - tr rho sigma when sigma is pure.
    """
    rho, sigma = _as_pair(rho, sigma)
    return float(_limits(rho[None], _psd_spectra(sigma[None], memo=True)[0])[0])


def tre_limit_one(rho, sigma) -> float:
    """a -> 1 limit: 1 - tr sigma {rho}.  Zero whenever rho is faithful."""
    # checked before the swap, so a mismatch names the shapes in call order
    rho, sigma = _as_pair(rho, sigma)
    return tre_limit_zero(sigma, rho)


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
    ``holevo_two_via_relative``; one pair reads the spectrum memo.
    """
    w, rho, sigma, mix, one = _ensemble(p, rho, sigma)
    value = _clamp_entropy(
        _entropies(mix, one) - w * _entropies(rho, one) - (1.0 - w) * _entropies(sigma, one)
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
    s_rho, s_sigma = _relative_entropies((rho, sigma), mix, used, one)
    # as Python's sum of the used terms: 0.0 first, and a skipped term adds 0.0
    value = _clamp_entropy(0.0 + weights[0] * s_rho + weights[1] * s_sigma)
    return float(value[0]) if one else value
