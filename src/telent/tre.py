"""Telescopic relative entropy.

The normalized quantity S(rho || a*rho + (1-a)*sigma) / (-log a), its
closed-form limits at a -> 0 and a -> 1, the exact pure-state formula,
and the entropy quantities it is built from and checked against (von
Neumann entropy, relative entropy with support semantics, binary
entropy, and the two-state Holevo quantity).

``_Core`` is the spectral core of a stack of pairs, from which S_a, its
limits, the telescoped Renyi overlaps and, in a sweep block, the Holevo
paths take their spectra.

All entropies are natural-log (nats).  The telescopic quantities are
dimensionless ratios and independent of the log base.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from typing import NamedTuple

import numpy as np

from .matfun import SpectralDecomposition, _as_pair, _hermitian_stack, _psd_spectra

# Mass of rho allowed outside the support of sigma before the relative
# entropy is declared infinite.
EPS_SUPP = 1e-10

# Entropy values in [-_NEG_CLAMP, 0) are roundoff and clamped to zero.
_NEG_CLAMP = 1e-10

# Number of pairs whose cores ``_pair_core`` keeps, and of grids of
# telescoping parameters whose mixtures a core keeps.
_PAIR_CORES = 2
_CORE_MIXTURES = 8


def _clamp_entropy(value):
    """0.0 for values in [-_NEG_CLAMP, 0); elementwise on an array."""
    if isinstance(value, float):
        return 0.0 if -_NEG_CLAMP <= value < 0.0 else value
    return np.where((-_NEG_CLAMP <= value) & (value < 0.0), 0.0, value)


def _read_only(*arrays: np.ndarray) -> None:
    """Make each array read-only, so a kept result cannot be changed."""
    for array in arrays:
        array.flags.writeable = False


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


def _xlogx(states: np.ndarray) -> np.ndarray:
    """``_sum_xlogx`` of each matrix of a stack (n, d, d), from a fresh eigh."""
    return _sum_xlogx(_psd_spectra(states)[0].eigenvalues)


def _entropy(xlogx):
    """The von Neumann entropy from sum lambda log lambda, clamped."""
    return _clamp_entropy(-xlogx)


def von_neumann_entropy(rho) -> float:
    """- tr rho log rho; zero for pure states, log(dim) for maximally mixed."""
    return float(_entropy(_xlogx(np.asarray(rho)[None]))[0])


def relative_entropy(rho, sigma) -> float:
    """tr rho (log rho - log sigma), +inf outside the support of sigma.

    The value is infinite when rho carries more than ``EPS_SUPP`` mass on
    the kernel of sigma; otherwise both operators are compressed to the
    support of sigma and the result is finite and nonnegative.
    """
    rho, sigma = _as_pair(rho, sigma)
    rho, sigma = rho[None], sigma[None]
    dec, _ = _psd_spectra(sigma)
    used = [np.ones(1, dtype=bool)]
    (value,) = _relative_entropies([rho], [_xlogx(rho)], sigma, dec, used)
    return float(value[0])


def _relative_entropies(states, xlogx, sigma, dec, used) -> list[np.ndarray]:
    """``relative_entropy`` of each stack in ``states`` against ``sigma``.

    ``states`` holds (N, d, d) stacks, ``xlogx`` the sum lambda log lambda
    of each stack's states, (N,), and ``used`` an (N,) mask for each;
    ``dec`` is the cut spectra of ``sigma``.  Pair i of a stack is compared with
    sigma[i] where its mask is true and gets 0.0 elsewhere.  Per pair the
    compression of sigma to its support and the log of that compression
    are computed once, and only if some used state stays inside the
    support.  Pairs are grouped by the rank of that support, in order of
    first appearance; a group is compressed in one stacked product, and
    its compressed sigmas are decomposed in one eigh without the PSD cut.
    Each element follows the one-pair sequence, so its value is the
    one-pair value bit for bit.
    """
    n = len(sigma)
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
    for x, use, ins, out in zip(xlogx, used, inside, cross):
        value = np.where(use, np.inf, 0.0)
        value[ins] = _clamp_entropy(x[ins] - out[ins])
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
    Only the one-pair, scalar-``a`` call reads and fills the pair's kept
    core (``_pair_core``); anything else evaluates a fresh ``_Core``, so
    its work does not depend on earlier calls.

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
        return float(_pair_core(rho, sigma).sa(grid.reshape(1, 1))[0, 0])
    if rho.ndim == 3:
        shape = (len(rho),)
        if grid.ndim:
            shape = np.broadcast_shapes((len(rho), 1), grid.shape)
        grid = np.broadcast_to(grid, shape).reshape(len(rho), -1)
    else:
        shape = grid.shape
        rho, sigma, grid = rho[None], sigma[None], grid.reshape(1, -1)
    core = _scope_core(rho, sigma) or _Core(rho, sigma)
    return core.sa(grid).reshape(shape)


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


def _pow(lam: np.ndarray, q: float) -> np.ndarray:
    """lam**q on cut spectra, 0 <= q <= 1, with x^0 the support mask."""
    # the kernel is exactly 0, so 0**q = 0 for q > 0; q = 0 needs the mask
    return lam**q if q > 0.0 else (lam > 0.0).astype(float)


def _overlaps(lam: np.ndarray, mu: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """sum_ij lam_i^(1-p) mu_j^p W_ij per cell: the cut spectra of rho (n, d)
    and of the compressed mixtures (n, r), and the weights W (n, d, r).

    Every term is nonnegative, so the sum is too."""
    row = _pow(lam, 1.0 - p)[:, None, :]
    return (row @ weights @ _pow(mu, p)[:, :, None])[:, 0, 0]


class _Support(NamedTuple):
    """A core's pairs of one joint-support rank, V their joint support."""

    pairs: np.ndarray  # the pairs, in increasing order
    rho_c: np.ndarray  # rho compressed to V, shape (n, r, r)
    sig_c: np.ndarray  # sigma compressed to V
    rho_in_V: np.ndarray  # U_rho* V, shape (n, d, r)


class _Joint(NamedTuple):
    """What a core takes from one stacked eigh of rho and (rho+sigma)/2,
    whose support is the joint support."""

    rho: SpectralDecomposition  # the cut spectra of rho, shape (N, d)
    xlogx: np.ndarray  # sum lambda log lambda of rho, shape (N,)
    supports: tuple  # a _Support per joint-support rank, in order of first appearance


class _Cells:
    """The compressed mixtures tau_c of one joint-support rank at one grid.

    Per cell: its pair ``i``, its column ``k`` of the grid and its
    telescoping parameter ``a``, ``relative``, S(rho || tau) =
    sum rho log rho - tr rho_c log tau_c clamped, and ``mu``, the cut
    eigenvalues of tau_c, shape (n, r).  S_a and the overlap weights are
    taken on first use, so a kept cell's S_a is a lookup, and S_a alone
    does not pay for the weights' products.  Every array is read-only.
    """

    def __init__(self, i, k, a, relative, mu, rho_in_V, j, U_tau) -> None:
        self.i, self.k, self.a, self.relative, self.mu = i, k, a, relative, mu
        # U_rho* V of the rank's pairs, each cell's position among them, and
        # the eigenvectors of tau_c
        self._factors = rho_in_V, j, U_tau
        _read_only(i, k, a, relative, mu)

    @functools.cached_property
    def sa(self) -> np.ndarray:
        """S_a = S(rho || tau) / (-log a) clamped, at cells with a > 0."""
        sa = _clamp_entropy(self.relative / -np.log(self.a))
        _read_only(sa)
        return sa

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """|(U_rho* V U_tau_c)_ij|^2, shape (n, d, r)."""
        rho_in_V, j, U_tau = self._factors
        del self._factors
        M = rho_in_V[j] @ U_tau
        weights = M.real**2 + M.imag**2
        _read_only(weights)
        return weights


class _Core:
    """The spectral core of N pairs (rho, sigma), stacks (N, d, d).

    S_a, its limits S_0 and S_1, the telescoped overlaps and, in a sweep
    block (``_block_core``), both Holevo paths take their spectra from it.
    Its parts are computed on first use:

    * ``sigma_spectra``, the cut spectra of sigma, for S_0 and Holevo;
    * ``joint`` (see ``_Joint``): one stacked eigh of rho over
      (rho+sigma)/2 gives rho's spectra, for S_1, sum lambda log lambda
      and the overlaps, and per joint-support rank V the pairs compressed
      to V and U_rho* V;
    * ``cells(grid)``: per rank, one stacked eigh of the compressed
      mixtures tau_c = a*rho_c + (1-a)*sig_c at the grid's cells with
      a < 1, which gives S(rho || tau) from tr rho_c log tau_c, the cut
      eigenvalues mu of tau_c and the overlap weights.  The last
      ``_CORE_MIXTURES`` grids are kept;
    * ``holevo_parts(w)``: the Holevo mixtures of the last weights.

    The eigh calls run in the order in which the parts are first used, so
    S_a takes sigma (if a cell is at a = 0), then the joint stack (rho
    first), then the mixtures rank by rank; the first invalid matrix in
    that order names the error.  A part whose input fails validation is
    never kept, so it raises on every use, and every kept array is
    read-only.  eigh on a stack returns per matrix the bits it returns for
    that matrix alone, so every value is the one-pair value bit for bit.
    """

    def __init__(self, rho: np.ndarray, sigma: np.ndarray) -> None:
        self.rho, self.sigma = rho, sigma
        self._cells: dict[bytes, list[_Cells]] = {}
        self._holevo: tuple = (None,)

    def _grid(self, a) -> np.ndarray:
        """``a`` as an (N, K) grid, read only; a (K,) grid is every pair's."""
        a = np.asarray(a, dtype=float)
        if a.ndim == 2 and len(a) == len(self.rho):
            return a
        grid = np.empty((len(self.rho), a.shape[-1]))
        grid[...] = a
        return grid

    @functools.cached_property
    def sigma_spectra(self) -> SpectralDecomposition:
        dec, _ = _psd_spectra(self.sigma)
        _read_only(dec.eigenvalues, dec.eigenvectors)
        return dec

    @functools.cached_property
    def joint(self) -> _Joint:
        rho, sigma, n = self.rho, self.sigma, len(self.rho)
        dec, _ = _psd_spectra(np.concatenate([rho, (rho + sigma) / 2.0]))
        # copies, so the core does not hold the spectra of (rho+sigma)/2
        lam, U = dec.eigenvalues[:n].copy(), dec.eigenvectors[:n].copy()
        supports = []
        for rank, pairs in _rank_groups(dec.eigenvalues[n:]):
            V = _support(dec.eigenvectors[n:], pairs, rank)
            Vh = V.conj().swapaxes(-1, -2)
            support = _Support(
                pairs, Vh @ rho[pairs] @ V, Vh @ sigma[pairs] @ V,
                U[pairs].conj().swapaxes(-1, -2) @ V,
            )
            _read_only(*support)
            supports.append(support)
        xlogx = _sum_xlogx(lam)
        _read_only(lam, U, xlogx)
        return _Joint(SpectralDecomposition(lam, U), xlogx, tuple(supports))

    def cells(self, grid: np.ndarray) -> list[_Cells]:
        """The compressed mixtures at the cells of an (N, K) grid with a < 1.

        Per joint-support rank, in the order of ``joint``, the rank's cells
        in row-major order and their mixtures in one stacked eigh.  Kept,
        most recently used last, for the last ``_CORE_MIXTURES`` grids,
        keyed on the grid's bytes (N is the core's, so they fix K).
        """
        key = grid.tobytes()
        found = self._cells.pop(key, None)
        if found is None:
            mixed = grid < 1.0
            if not mixed.any():
                return []
            found = []
            for support in self.joint.supports:
                j, k = np.nonzero(mixed[support.pairs])
                if not j.size:
                    continue
                i = support.pairs[j]
                a_c = grid[i, k][:, None, None]
                rho_c = support.rho_c[j]
                dec, floored = _psd_spectra(a_c * rho_c + (1.0 - a_c) * support.sig_c[j])
                # the log takes the eigenvalues floored at the mixture floor
                log_tau = dec.apply(np.log(floored))
                cross = np.trace(rho_c @ log_tau, axis1=1, axis2=2).real
                relative = _clamp_entropy(self.joint.xlogx[i] - cross)
                mu, U_tau = dec.eigenvalues, dec.eigenvectors
                cells = _Cells(i, k, a_c[:, 0, 0], relative, mu, support.rho_in_V, j, U_tau)
                found.append(cells)
            if len(self._cells) == _CORE_MIXTURES:
                del self._cells[next(iter(self._cells))]
        self._cells[key] = found
        return found

    def sa(self, a) -> np.ndarray:
        """S_a of the pairs at a grid of a in [0, 1], (K,) for every pair or
        (N, K) with a row per pair; shape (N, K).

        The a = 0 and a = 1 cells are the closed-form limits; every other
        cell is (sum rho log rho - tr rho_c log tau_c) / (-log a), clamped.
        """
        grid = mixed = self._grid(a)
        values = np.empty(grid.shape)
        if grid.min(initial=1.0) == 0.0:
            i, k = (grid == 0.0).nonzero()
            values[i, k] = _limits(self.rho, self.sigma_spectra)[i]
            # the a = 0 cells move to a = 1, which takes no mixture
            mixed = grid + (grid == 0.0)
        if grid.max(initial=0.0) == 1.0:
            i, k = (grid == 1.0).nonzero()
            values[i, k] = _limits(self.sigma, self.joint.rho)[i]
        for cells in self.cells(mixed):
            values[cells.i, cells.k] = cells.sa
        return values

    def overlaps(self, p_grid, a) -> np.ndarray:
        """Telescoped overlaps tr rho^(1-p) tau^p over a (p, a) grid, with
        tau = a*rho + (1-a)*sigma and ``a`` as for ``sa``.

        Shape (N, len(p_grid), K), NaN at a = 1.  Each p is one stacked
        product per rank of the cells that ``sa`` takes at the same grid.
        """
        grid = self._grid(a)
        out = np.full((len(grid), len(p_grid), grid.shape[1]), np.nan)
        for cells in self.cells(grid):
            lam = self.joint.rho.eigenvalues[cells.i]
            for m, p in enumerate(p_grid):
                out[cells.i, m, cells.k] = _overlaps(lam, cells.mu, cells.weights, p)
        return out

    def holevo_parts(self, w: np.ndarray):
        """What both Holevo paths take at one weight per pair, (N,): the
        mixtures, their cut spectra, and sum lambda log lambda of rho and of
        sigma.  The mixtures of the last weights are kept, so the two paths
        decompose them once."""
        key = w.tobytes()
        if self._holevo[0] != key:
            mix, dec = _mixture_spectra(w, self.rho, self.sigma)
            _read_only(mix, dec.eigenvalues, dec.eigenvectors)
            self._holevo = key, mix, dec
        xlogx = self.joint.xlogx, _sum_xlogx(self.sigma_spectra.eigenvalues)
        return *self._holevo[1:], xlogx


# The core of the sweep block being evaluated, if any (``_block_core``).
_BLOCK_CORE: contextvars.ContextVar = contextvars.ContextVar("block_core", default=None)


@contextlib.contextmanager
def _block_core(rho: np.ndarray, sigma: np.ndarray):
    """Scope in which the stacks ``rho`` and ``sigma`` share one core.

    Inside, a stacked S_a or Holevo call on these very arrays (compared by
    identity, not by content) reads the core this yields, so S_a, both
    Holevo paths and the overlaps a caller takes from the core share their
    spectra; any other call builds its own.  The core is dropped on exit,
    also when the block raised.
    """
    core = _Core(rho, sigma)
    token = _BLOCK_CORE.set(core)
    try:
        yield core
    finally:
        _BLOCK_CORE.reset(token)


def _scope_core(rho: np.ndarray, sigma: np.ndarray) -> _Core | None:
    """The core of the enclosing ``_block_core`` if it is of these stacks."""
    core = _BLOCK_CORE.get()
    if core is not None and core.rho is rho and core.sigma is sigma:
        return core
    return None


# The kept cores, most recently used first, each with its key: the shape
# and the bytes of both states.  A linear scan compares keys by memcmp,
# where a dict would hash every byte of the inputs on every call.
_CORES: list[tuple[tuple, _Core]] = []


def _pair_core(rho: np.ndarray, sigma: np.ndarray) -> _Core:
    """The core of one pair of complex arrays (d, d), a stack of one.

    Kept for the last ``_PAIR_CORES`` distinct pairs, keyed on the shape
    and the exact bytes of both, so each part of a pair's core is computed
    once while the pair stays among them, and every value is the one a
    fresh core gives.  A core reads its states from the key's bytes, so a
    later change to the caller's arrays cannot reach it.
    """
    key = (rho.shape, rho.tobytes(), sigma.tobytes())
    for i, (kept, core) in enumerate(_CORES):
        if kept == key:
            _CORES.insert(0, _CORES.pop(i))
            return core
    stacks = (np.frombuffer(data, dtype=complex).reshape(1, *rho.shape) for data in key[1:])
    core = _Core(*stacks)
    _CORES.insert(0, (key, core))
    del _CORES[_PAIR_CORES:]
    return core


def tre_limit_zero(rho, sigma) -> float:
    """a -> 0 limit: 1 - tr rho {sigma}.

    Zero whenever sigma is faithful; 1 - tr rho sigma when sigma is pure.
    """
    return float(_pair_core(*_as_pair(rho, sigma)).sa([[0.0]])[0, 0])


def tre_limit_one(rho, sigma) -> float:
    """a -> 1 limit: 1 - tr sigma {rho}.  Zero whenever rho is faithful."""
    return float(_pair_core(*_as_pair(rho, sigma)).sa([[1.0]])[0, 0])


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
    """The Holevo functions' inputs as stacks: (w, rho, sigma, one).

    ``p`` is checked and broadcast to one weight per pair, and ``one``
    marks a one-pair call, whose inputs become stacks of one.
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
    return np.broadcast_to(w, (len(rho),)), rho, sigma, one


def _mixture_spectra(w, rho, sigma):
    """The Holevo mixtures w*rho + (1-w)*sigma of the stacks, one weight
    per pair, and their cut spectra."""
    w_c = w[:, None, None]
    mix = w_c * rho + (1.0 - w_c) * sigma
    return mix, _psd_spectra(mix)[0]


def _holevo_parts(w, rho, sigma):
    """``_Core.holevo_parts`` of stacks: from the core of a sweep block of
    them (``_block_core``), else by decomposing the mixtures, rho and sigma
    in that order."""
    core = _scope_core(rho, sigma)
    if core is not None:
        return core.holevo_parts(w)
    return *_mixture_spectra(w, rho, sigma), (_xlogx(rho), _xlogx(sigma))


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
    stacks, or taken from the core of a sweep block (``_block_core``).
    """
    w, rho, sigma, one = _ensemble(p, rho, sigma)
    _, dec, xlogx = _holevo_parts(w, rho, sigma)
    entropies = [_entropy(x) for x in (_sum_xlogx(dec.eigenvalues), *xlogx)]
    value = _clamp_entropy(entropies[0] - w * entropies[1] - (1.0 - w) * entropies[2])
    return float(value[0]) if one else value


def holevo_two_via_relative(p, rho, sigma):
    """Same quantity as weighted relative entropies against the mixture.

    p S(rho||mix) + (1-p) S(sigma||mix); zero-weight terms are skipped so
    the p = 0, 1 endpoints avoid 0 * inf.  Both terms share one
    decomposition of the mixture compressed to its support.

    Shapes as for ``holevo_two``.  A stack's pairs are grouped by the rank
    of the mixture's support; the mixtures, rho and sigma are decomposed
    as whole stacks, or taken from the core of a sweep block, which
    decomposes the mixtures once for both Holevo functions.
    """
    w, rho, sigma, one = _ensemble(p, rho, sigma)
    mix, dec, xlogx = _holevo_parts(w, rho, sigma)
    weights = (w, 1.0 - w)
    used = [weight > 0.0 for weight in weights]
    s_rho, s_sigma = _relative_entropies((rho, sigma), xlogx, mix, dec, used)
    # as Python's sum of the used terms: 0.0 first, and a skipped term adds 0.0
    value = _clamp_entropy(0.0 + weights[0] * s_rho + weights[1] * s_sigma)
    return float(value[0]) if one else value
