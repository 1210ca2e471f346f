"""Telescopic relative entropy.

The normalized quantity S(rho || a*rho + (1-a)*sigma) / (-log a), its
closed-form limits at a -> 0 and a -> 1, the exact pure-state formula,
and the entropy quantities it is built from and checked against (von
Neumann entropy, relative entropy with support semantics, binary
entropy, and the two-state Holevo quantity).

``_Core`` is the spectral core of a stack of pairs, from which S_a, its
limits, the telescoped Renyi overlaps, Q_{p,a} and, in a sweep block, the
Holevo paths take their spectra.  ``renyi`` is the public layer of the
overlaps and of Q_{p,a}; its functions parse their pairs and a-grids as
S_a does (``_pairs``).

All entropies are natural-log (nats).  The telescopic quantities are
dimensionless ratios and independent of the log base.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from typing import NamedTuple

import numpy as np

from .matfun import SpectralDecomposition, _as_pair, _checked, _hermitian_stack, _psd_spectra

# Mass of rho allowed outside the support of sigma before the relative
# entropy is declared infinite.
EPS_SUPP = 1e-10

# Entropy values in [-_NEG_CLAMP, 0) are roundoff and clamped to zero.
_NEG_CLAMP = 1e-10

# Number of pairs whose cores ``_pair_core`` keeps, and of grids of
# telescoping parameters whose mixtures a core keeps.
_PAIR_CORES = 2
_CORE_MIXTURES = 8
# Number of grids of Renyi orders whose Q_{p,a} terms a ``_Grid`` keeps.
_GRID_ORDERS = 8


def _clamp_entropy(value):
    """0.0 for values in [-_NEG_CLAMP, 0); elementwise on an array, which is
    returned as it is when no value is negative."""
    if isinstance(value, float):
        return 0.0 if -_NEG_CLAMP <= value < 0.0 else value
    # a NaN propagates through the minimum, so it takes the elementwise path
    if np.minimum.reduce(value, axis=None, initial=0.0) >= 0.0:
        return value
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


def _rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x[rows]`` for increasing ``rows``, or ``x`` itself where that takes
    every row of a C-contiguous ``x``: the copy would hold the same bytes in
    the same layout, so a product gives the same bits without it."""
    return x if len(rows) == len(x) and x.flags.c_contiguous else x[rows]


def _support(U: np.ndarray, rows: np.ndarray, rank: int) -> np.ndarray:
    """The supports of the given rows of a stack of cut spectra, all of
    rank ``rank``: eigenvalues ascend, so they are the last ``rank``
    eigenvector columns.  They are made contiguous like ``support_basis``,
    as BLAS may round a strided operand differently."""
    return np.ascontiguousarray(_rows(U, rows)[:, :, U.shape[-1] - rank :])


def _sum_xlogx(lam: np.ndarray) -> np.ndarray:
    """sum lambda_i log lambda_i per row of cut spectra (n, d), 0 log 0 = 0.

    A cut spectrum's positive entries are its last ``rank`` ones, and each
    rank group sums that suffix along its rows.  That gives every row the
    bits of a sum over its positive entries alone, which a zero-padded sum
    does not from d = 8 on, where numpy's pairwise summation changes regime.
    """
    out = np.empty(len(lam))
    for rank, rows in _rank_groups(lam):
        pos = _rows(lam, rows)[:, lam.shape[1] - rank :]
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
        compressed = [Vh @ _rows(state, pairs) @ V for state in states]
        for state_c, use, ins in zip(compressed, used, inside):
            leak = 1.0 - np.trace(state_c, axis1=1, axis2=2).real
            ins[pairs] = use[pairs] & ~(leak > EPS_SUPP)
        need = np.logical_or.reduce([ins[pairs] for ins in inside])
        if not need.any():
            continue
        sig_c = _hermitian_stack((Vh @ _rows(sigma, pairs) @ V)[need])
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
    core, grid, lead, tail = _pairs(rho, sigma, a)
    return _shaped(core.sa(grid), lead + tail)


def _pairs(rho, sigma, a):
    """The pair or stack and the telescoping parameters of S_a, of the
    telescoped overlaps and of Q_{p,a}, checked, as (core, grid, lead, tail).

    ``grid`` is ``a`` as an (N, K) grid for ``core``; ``lead`` is (N,) for a
    stack and () for one pair, and a result over the grid has the shape
    lead + tail, or lead + p.shape + tail with an array p of Renyi orders.
    One pair with a scalar ``a`` reads its kept core (``_pair_core``); in a
    sweep block its stacks read the block's core, and anything else gets a
    fresh ``_Core``.

    The one-pair call is the stacked computation on a stack of one, with
    no formula of its own.  On a kept pair its cost is the check of ``a``
    and of the shapes, and the key of ``_pair_core``, two copies and
    compares of the states' bytes (about 7 us at d = 64); the first call at
    a new a adds one eigh of the compressed mixture and one d^3 product,
    the overlap weights, which S_a and Q_{p,a} at that a share.
    """
    grid = _checked(a, "telescoping parameter a")
    if grid.ndim > 2:
        raise ValueError(
            f"telescoping parameters must have at most 2 axes, got shape {grid.shape}"
        )
    rho, sigma = _as_pair(rho, sigma)
    if rho.ndim == 3:
        lead, tail = (len(rho),), grid.shape[-1:]
    elif grid.ndim:
        rho, sigma, lead, tail = rho[None], sigma[None], (), grid.shape
    else:
        return _pair_core(rho, sigma), grid.reshape(1, 1), (), ()
    grid = np.broadcast_to(grid, lead + tail).reshape(len(rho), -1)
    return _scope_core(rho, sigma) or _Core(rho, sigma), grid, lead, tail


def _shaped(values: np.ndarray, shape: tuple):
    """``values`` in ``shape``, a Python float when that is ()."""
    return values.reshape(shape) if shape else values.item()


def _limits(states, dec: SpectralDecomposition) -> np.ndarray:
    """1 - tr rho P per pair of a stack, P = V V* the projector onto the
    support of the matching cut spectrum of ``dec``.

    tr rho P is taken as tr V* rho V, without forming P: one stacked
    product rho V per support rank; each element is the one-pair value bit
    for bit.
    """
    traces = np.empty(len(states))
    for rank, rows in _rank_groups(dec.eigenvalues):
        V = _support(dec.eigenvectors, rows, rank)
        traces[rows] = np.sum(V.conj() * (_rows(states, rows) @ V), axis=(1, 2)).real
    return _clamp_entropy(1.0 - traces)


def _pow(lam: np.ndarray, q: float) -> np.ndarray:
    """lam**q on cut spectra, 0 <= q <= 1, with x^0 the support mask."""
    # the kernel is exactly 0, so 0**q = 0 for q > 0; q = 0 needs the mask
    return lam**q if q > 0.0 else (lam > 0.0).astype(float)


def _grid_terms(f, *grids):
    """f of Python floats at each point of the broadcast grids.

    Terms that depend only on the a- or p-grid (-log a, 2(1-a)^2, a**p,
    h(p)) are taken with Python's math, once per distinct point, so each
    is the term of the formula on floats, as a one-pair call takes it;
    numpy's array functions may round the last bit differently.  Scalars
    give one value, arrays an array of their broadcast shape, read-only.
    The terms are kept for the last few grids, keyed on the grids' shapes
    and bytes, so a sweep takes them once, not once per block.
    """
    arrays = [np.asarray(g, dtype=float) for g in grids]
    return _grid_terms_of_bytes(f, *((x.shape, x.tobytes()) for x in arrays))


@functools.lru_cache(maxsize=16)
def _grid_terms_of_bytes(f, *grids: tuple):
    """``_grid_terms`` of grids given by their shapes and float64 bytes."""
    arrays = np.broadcast_arrays(*(np.frombuffer(x).reshape(shape) for shape, x in grids))
    points = list(zip(*(x.ravel().tolist() for x in arrays)))
    terms = {point: f(*point) for point in dict.fromkeys(points)}
    values = [terms[point] for point in points]
    if not arrays[0].shape:
        return values[0]
    values = np.array(values, dtype=float).reshape(arrays[0].shape)
    values.flags.writeable = False
    return values


def _q_scale(a: float, p: float) -> float:
    """1 - a^p, the denominator of Q_{p,a}, or inf where it is 0, so that
    those cells, whose value is the a -> 1 limit, divide without a warning."""
    return 1.0 - a**p or np.inf


class _Grid:
    """A grid of telescoping parameters (N, K) and what a core reads of it,
    taken once per distinct grid (``_grid_of``), so that a call at a grid
    seen before does no index arithmetic on it.

    ``a`` is the grid, read-only, and ``key`` its bytes.  ``zero`` and
    ``one`` are the (rows, columns) of its cells at a = 0 and at a = 1, or
    None.  ``mixed`` marks the cells with a < 1, whose mixtures the core
    decomposes, and ``cells`` gives them in row-major order as (rows,
    columns, a, 1 - a), the coefficients of tau = a*rho + (1-a)*sigma, or
    None if there is none.  ``sa_grid`` is the grid at which S_a takes its
    mixtures: the a = 0 cells, which are the closed form S_0, move to
    a = 1, which takes no mixture.
    """

    def __init__(self, shape: tuple, key: bytes) -> None:
        self.key = key
        self.a = a = np.frombuffer(key).reshape(shape)
        self.zero = self._where(a == 0.0)
        self.one = self._where(a == 1.0)
        self.mixed = a < 1.0
        self.cells = None
        if self.mixed.any():
            i, k = self.mixed.nonzero()
            a_c = a[i, k][:, None, None]
            self.cells = i, k, a_c, 1.0 - a_c
            _read_only(*self.cells)
        self.sa_grid = self if self.zero is None else _grid_of(shape, (a + (a == 0.0)).tobytes())
        self._q: dict[tuple, tuple] = {}
        _read_only(self.mixed)

    @staticmethod
    def _where(mask: np.ndarray):
        """The (rows, columns) of ``mask``, or None where it is all false."""
        if not mask.any():
            return None
        where = mask.nonzero()
        _read_only(*where)
        return where

    def q_terms(self, p_grid: tuple):
        """(1 - a^p per cell of the (p, a) grid, shape (N, P, K), and the
        (rows, orders, columns) of its cells where 1 - a^p is 0, or None).

        The scale is ``_q_scale`` by Python's math (``_grid_terms``).  Kept
        for the last ``_GRID_ORDERS`` grids of Renyi orders.
        """
        found = self._q.pop(p_grid, None)
        if found is None:
            scale = _grid_terms(_q_scale, self.a[:, None, :], [[p] for p in p_grid])
            found = scale, self._where(np.isinf(scale))
            if len(self._q) == _GRID_ORDERS:
                del self._q[next(iter(self._q))]
        self._q[p_grid] = found
        return found


@functools.lru_cache(maxsize=16)
def _grid_of(shape: tuple, key: bytes) -> _Grid:
    """The ``_Grid`` of the float64 grid of that shape and those bytes,
    kept for the last few grids, so a sweep or a loop over pairs at the
    same parameters takes each grid's bookkeeping once."""
    return _Grid(shape, key)


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
    # lambda log lambda (0 log 0 = 0) and lambda per eigenvalue of rho, (N, 2, d)
    entropy_rows: np.ndarray
    supports: tuple  # a _Support per joint-support rank, in order of first appearance


class _Cells:
    """The compressed mixtures tau_c of one joint-support rank at one grid.

    Per cell: its pair ``i``, its column ``k`` of the grid and its
    telescoping parameter ``a``, ``mu``, the cut eigenvalues of tau_c,
    shape (n, r), ``floored``, its uncut eigenvalues floored at the
    mixture floor, and ``lam``, the cut eigenvalues of rho, shape (n, d),
    a view of ``_Joint.entropy_rows``.
    The overlap weights W, S(rho || tau), S_a and the overlaps at each p
    are taken on first use, so a kept cell's S_a or overlap is a lookup.
    S(rho || tau) and the overlaps are sums over W's entries with lam_i
    on the rows and a function of mu_j on the columns, so S_a and Q_{p,a}
    at one grid share W's product, and S_a alone takes no other d^3
    product.  Every array is read-only.
    """

    def __init__(self, i, k, a, dec, floored, entropy_rows, rho_in_V, j) -> None:
        self.i, self.k, self.a, self.floored = i, k, a, floored
        self.mu = dec.eigenvalues
        self._entropy_rows, self.lam = entropy_rows, entropy_rows[:, 1]
        # U_rho* V of the rank's pairs, each cell's position among them (None
        # where the cells are the rank's pairs in order), and the
        # eigenvectors of tau_c
        self._factors = rho_in_V, j, dec.eigenvectors
        self._overlaps: dict[float, np.ndarray] = {}
        _read_only(i, k, a, self.mu, floored, entropy_rows, self.lam)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """|(U_rho* V U_tau_c)_ij|^2, shape (n, d, r)."""
        rho_in_V, j, U_tau = self._factors
        del self._factors
        M = (rho_in_V if j is None else rho_in_V[j]) @ U_tau
        weights = M.real**2
        weights += M.imag**2
        _read_only(weights)
        return weights

    @functools.cached_property
    def relative(self) -> np.ndarray:
        """S(rho || tau) = sum_ij lambda_i W_ij (log lambda_i - log mu_j)
        clamped, with mu floored, so the log is finite on the kernel of tau,
        where rho has no weight.

        The rows of W sum to 1 on the support of rho, so this is
        sum lambda log lambda - sum_ij lambda_i W_ij log mu_j.  It is summed
        per column j, ((lambda log lambda) W)_j - (lambda W)_j log mu_j,
        so both terms, which cancel as tau tends to rho, carry the same
        roundoff of W: the 40-digit reference puts the difference of the
        two sums taken apart up to 3x further off at a = 0.5 and 0.9.
        """
        y = self._entropy_rows @ self.weights
        relative = _clamp_entropy(np.add.reduce(y[:, 0] - y[:, 1] * np.log(self.floored), axis=1))
        _read_only(relative)
        return relative

    @functools.cached_property
    def sa(self) -> np.ndarray:
        """S_a = S(rho || tau) / (-log a) clamped, at cells with a > 0."""
        sa = _clamp_entropy(self.relative / -np.log(self.a))
        _read_only(sa)
        return sa

    def overlaps(self, p: float) -> np.ndarray:
        """tr rho^(1-p) tau^p = sum_ij lam_i^(1-p) mu_j^p W_ij per cell, kept
        per p.  Every term is nonnegative, so the sum is too."""
        if p not in self._overlaps:
            row = _pow(self.lam, 1.0 - p)[:, None, :]
            self._overlaps[p] = (row @ self.weights @ _pow(self.mu, p)[:, :, None])[:, 0, 0]
            _read_only(self._overlaps[p])
        return self._overlaps[p]


class _Core:
    """The spectral core of N pairs (rho, sigma), stacks (N, d, d).

    S_a, its limits S_0 and S_1, the telescoped overlaps, Q_{p,a} and, in a
    sweep block (``_block_core``), both Holevo paths take their spectra
    from it.
    Its parts are computed on first use:

    * ``sigma_spectra``, the cut spectra of sigma, for S_0 and Holevo;
    * ``joint`` (see ``_Joint``): one stacked eigh of rho over
      (rho+sigma)/2 gives rho's spectra, for S_1, sum lambda log lambda
      and the overlaps, and per joint-support rank V the pairs compressed
      to V and U_rho* V;
    * ``limit_zero`` and ``limit_one``, the closed forms S_0 and S_1 per
      pair, from ``sigma_spectra`` and from ``joint``; S_a at a = 0 and
      a = 1 and Q_{p,a} where 1 - a^p is 0 read them;
    * ``cells(grid)``: per rank, one stacked eigh of the compressed
      mixtures tau_c = a*rho_c + (1-a)*sig_c at the grid's cells with
      a < 1, which gives the cut eigenvalues mu of tau_c and, from one
      product, the overlap weights W = |U_rho* V U_tau_c|^2.  S(rho || tau)
      and the overlaps per p, from which ``q`` takes Q_{p,a}, are sums over
      W (see ``_Cells``); no log tau_c is formed.  The last
      ``_CORE_MIXTURES`` grids are kept;
    * ``holevo_parts(w)``: the Holevo mixtures of the last weights.

    A grid's index arithmetic (which cells are at a = 0, at a = 1 or
    mixed, and 1 - a^p per order) is taken once per distinct grid
    (``_Grid``) and shared by every core, so a call at a kept pair and a
    kept grid is a few lookups and the (N, P, K) result's arithmetic.
    Where a rank holds every pair of the core, its arrays are used as they
    are (``_rows``), so a stack of one copies no matrix to index it.

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

    def _grid(self, a) -> _Grid:
        """``a`` as the ``_Grid`` of an (N, K) grid; a (K,) grid is every pair's."""
        if isinstance(a, _Grid):
            return a
        a = np.asarray(a, dtype=float)
        if not (a.ndim == 2 and len(a) == len(self.rho)):
            a = np.broadcast_to(a, (len(self.rho), a.shape[-1]))
        return _grid_of(a.shape, a.tobytes())

    @functools.cached_property
    def sigma_spectra(self) -> SpectralDecomposition:
        dec, _ = _psd_spectra(self.sigma)
        _read_only(dec.eigenvalues, dec.eigenvectors)
        return dec

    @functools.cached_property
    def joint(self) -> _Joint:
        rho, sigma, n = self.rho, self.sigma, len(self.rho)
        stack = np.empty((2 * n, *rho.shape[1:]), dtype=complex)
        stack[:n] = rho
        # (rho+sigma)/2 in place, bit for bit
        np.divide(np.add(rho, sigma, out=stack[n:]), 2.0, out=stack[n:])
        dec, _ = _psd_spectra(stack)
        # copies, so the core does not hold the spectra of (rho+sigma)/2
        lam, U = dec.eigenvalues[:n].copy(), dec.eigenvectors[:n].copy()
        supports = []
        for rank, pairs in _rank_groups(dec.eigenvalues[n:]):
            V = _support(dec.eigenvectors[n:], pairs, rank)
            Vh = V.conj().swapaxes(-1, -2)
            support = _Support(
                pairs, Vh @ _rows(rho, pairs) @ V, Vh @ _rows(sigma, pairs) @ V,
                _rows(U, pairs).conj().swapaxes(-1, -2) @ V,
            )
            _read_only(*support)
            supports.append(support)
        xlogx = _sum_xlogx(lam)
        rows = np.empty((n, 2, lam.shape[1]))
        np.multiply(lam, np.log(lam, out=np.zeros_like(lam), where=lam > 0.0), out=rows[:, 0])
        rows[:, 1] = lam
        _read_only(lam, U, xlogx, rows)
        return _Joint(SpectralDecomposition(lam, U), xlogx, rows, tuple(supports))

    @functools.cached_property
    def limit_zero(self) -> np.ndarray:
        """S_0 = 1 - tr rho {sigma} per pair, (N,)."""
        s0 = _limits(self.rho, self.sigma_spectra)
        _read_only(s0)
        return s0

    @functools.cached_property
    def limit_one(self) -> np.ndarray:
        """S_1 = 1 - tr sigma {rho} per pair, (N,)."""
        s1 = _limits(self.sigma, self.joint.rho)
        _read_only(s1)
        return s1

    def cells(self, grid: _Grid) -> list[_Cells]:
        """The compressed mixtures at the cells of a grid with a < 1.

        Per joint-support rank, in the order of ``joint``, the rank's cells
        in row-major order and their mixtures in one stacked eigh.  Kept,
        most recently used last, for the last ``_CORE_MIXTURES`` grids,
        keyed on the grid's bytes (N is the core's, so they fix K).
        """
        found = self._cells.pop(grid.key, None)
        if found is None:
            found = self._mixtures(grid)
            if len(self._cells) == _CORE_MIXTURES:
                del self._cells[next(iter(self._cells))]
        self._cells[grid.key] = found
        return found

    def _mixtures(self, grid: _Grid) -> list[_Cells]:
        """``cells`` of a grid that is not kept."""
        if grid.cells is None:
            return []
        joint, found = self.joint, []
        for support in joint.supports:
            if len(joint.supports) == 1:
                # every pair has this rank, so its cells are the grid's
                i, k, a_c, b_c = grid.cells
                j = i
            else:
                j, k = np.nonzero(grid.mixed[support.pairs])
                if not j.size:
                    continue
                i = support.pairs[j]
                a_c = grid.a[i, k][:, None, None]
                b_c = 1.0 - a_c
            # a cell per pair of the rank, in order (one column): the rank's
            # arrays as they are, and the pairs' rows by ``_rows``
            whole = grid.a.shape[1] == 1 and len(j) == len(support.pairs)
            rho_c = support.rho_c if whole else support.rho_c[j]
            tau_c = a_c * rho_c
            tau_c += b_c * (support.sig_c if whole else support.sig_c[j])
            dec, floored = _psd_spectra(tau_c)
            rows = _rows(joint.entropy_rows, i) if whole else joint.entropy_rows[i]
            j = None if whole else j
            found.append(_Cells(i, k, a_c[:, 0, 0], dec, floored, rows, support.rho_in_V, j))
        return found

    def sa(self, a) -> np.ndarray:
        """S_a of the pairs at a grid of a in [0, 1], (K,) for every pair or
        (N, K) with a row per pair; shape (N, K).

        The a = 0 and a = 1 cells are the closed-form limits; every other
        cell is S(rho || tau) / (-log a), clamped, with S(rho || tau) =
        sum_ij lambda_i W_ij (log lambda_i - log mu_j) from the cell's
        overlap weights W (``_Cells.relative``).
        """
        grid = self._grid(a)
        values = np.empty(grid.a.shape)
        if grid.zero is not None:
            i, k = grid.zero
            values[i, k] = self.limit_zero[i]
        if grid.one is not None:
            i, k = grid.one
            values[i, k] = self.limit_one[i]
        for cells in self.cells(grid.sa_grid):
            values[cells.i, cells.k] = cells.sa
        return values

    def overlaps(self, p_grid, a) -> np.ndarray:
        """Telescoped overlaps tr rho^(1-p) tau^p over a (p, a) grid, with
        tau = a*rho + (1-a)*sigma and ``a`` as for ``sa``.

        Shape (N, len(p_grid), K).  At a = 1, tau = rho and the overlap is
        tr rho = 1.  Each p is one stacked product per rank of the cells
        that ``sa`` takes at the same grid, kept with the cells, so Q_{p,a}
        and the overlaps at one grid take the products once.
        """
        grid = self._grid(a)
        out = np.ones((len(grid.a), len(p_grid), grid.a.shape[1]))
        for cells in self.cells(grid):
            for m, p in enumerate(p_grid):
                out[cells.i, m, cells.k] = cells.overlaps(p)
        return out

    def q(self, p_grid, a) -> np.ndarray:
        """Q_{p,a} = (1 - overlap) / (1 - a^p) over a (p, a) grid of p in
        (0, 1), with ``a`` as for ``sa``; shape (N, len(p_grid), K).

        Each a^p is taken with Python's pow, once per distinct (a, p), and
        each value is clamped at 0 as Python's max(x, 0.0) clamps, so every
        element is the one-pair, scalar value bit for bit.  Where 1 - a^p
        is 0, at a = 1 and where a^p rounds to 1 (a within about 1e-16 / p
        of 1), the cell is the a -> 1 limit, the closed form
        S_1 = 1 - tr sigma {rho} that ``sa`` takes at a = 1.
        """
        grid = self._grid(a)
        scale, limit = grid.q_terms(tuple(p_grid))
        values = self.overlaps(p_grid, grid)
        np.subtract(1.0, values, out=values)
        values /= scale
        if limit is not None:
            i, m, k = limit
            values[i, m, k] = self.limit_one[i]
        values[values < 0.0] = 0.0
        return values

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

    Inside, a stacked S_a, overlap, Q_{p,a} or Holevo call on these very
    arrays (compared by identity, not by content) reads the core this
    yields, so they share their spectra; any other call builds its own.
    The core is dropped on exit, also when the block raised.
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
    later change to the caller's arrays cannot reach it.  The key is the
    part of a kept pair's per-call cost that grows with d: a copy and a
    memcmp of each state, where a hash would read every byte again.
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
    return float(_pair_core(*_as_pair(rho, sigma)).limit_zero[0])


def tre_limit_one(rho, sigma) -> float:
    """a -> 1 limit: 1 - tr sigma {rho}.  Zero whenever rho is faithful."""
    return float(_pair_core(*_as_pair(rho, sigma)).limit_one[0])


def tre_pure_closed_form(t: float, a: float) -> float:
    """Exact value for two pure states with trace norm distance ``t``.

    With w = 4a(1-a)t^2,

        (1/(-2 log a)) * (-log(w/4)
            - ((1 - w/(2a)) / sqrt(1-w)) * log((1+sqrt(1-w))/(1-sqrt(1-w)))).

    The w = 1 singularity (orthogonal states at a = 1/2) is removable and
    evaluated by series; the log ratio is computed as log((1+u)^2/w) to
    stay stable as w -> 0.  Both endpoint limits a -> 0, 1 converge to t^2.
    """
    _checked(t, "trace norm distance t")
    _checked(a, "telescoping parameter a", closed=False)
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
    _checked(p, "probability")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log(p) - (1.0 - p) * np.log1p(-p))


def _ensemble(p, rho, sigma):
    """The Holevo functions' inputs as stacks: (w, rho, sigma, one).

    ``p`` is checked and broadcast to one weight per pair, and ``one``
    marks a one-pair call, whose inputs become stacks of one.
    """
    w = _checked(p, "probability")
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
