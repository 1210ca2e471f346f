"""Randomized property-test engine.

Sweeps sampled state pairs (faithful, rank-deficient, pure, and
orthogonal-by-construction strata) through every inequality and identity
the library implements, reporting per-check trial counts, failures, worst
signed margins, and serialized counterexample witnesses.  A margin is the
inequality restated as "margin >= 0"; a check fails when its margin drops
below minus the configured slack.

Trials are independent and derive their RNG streams as
``master_seed XOR trial_index``, so reports are deterministic for a fixed
seed and any trial can be replayed in isolation.  ``replay_witness``
evaluates a serialized witness as a one-trial block of the sweep's own
code, so its margin is the recorded one by construction.

The sweep works in blocks of trials.  A block's trials are drawn as
stacks, each quantity of a block is one stacked call, each check's
margins are one array in record order (trial, then p, then a), and
``CheckStats.reduce`` takes that array in one step, building a witness
only for a new worst margin.  Every margin function is the one formula
of its check, on floats or on arrays; the terms that depend only on the
a- and p-grids are taken with Python's math, once per grid point and
sweep.  The report is written by a writer of its own, byte for byte what
``json.dumps`` writes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

import numpy as np

from .matfun import trace_norm_distance
from .states import (
    _embed,
    _ginibre,
    _haar_frames,
    _hs_states,
    _pure_states,
    is_orthogonal,
    state_from_jsonable,
    state_to_jsonable,
)
from .tre import (
    _block_core,
    binary_entropy,
    holevo_two,
    holevo_two_via_relative,
    telescopic_relative_entropy,
)

# Overlap threshold for the strict (non-orthogonal) maximality probe and
# the margin it must respect.
_OVERLAP_MIN = 0.1
_STRICT_GAP = 1e-6

# a-nodes for the limit checks, coarsest first: the coarsest anchors the
# Cauchy test, the two finest feed the Richardson extrapolation.  The a -> 0 side converges
# only like 1/|log a| with curvature on the scale of sigma's smallest
# eigenvalue, so its nodes sit very deep; the a -> 1 side converges like
# (1-a) log(1-a) but loses precision to roundoff amplified by 1/(1-a), so
# its nodes stay coarser.
LIMIT_NODES_ZERO = (1e-6, 1e-9, 1e-11)
LIMIT_NODES_ONE = (1e-5, 1e-7, 1e-9)
# The a-values of both node sets, in that order.
_LIMIT_A = LIMIT_NODES_ZERO + tuple(1.0 - e for e in LIMIT_NODES_ONE)

# Margins below this are tallied as near-equalities (tightness cases).
_NEAR_EQUALITY = 1e-4

STRATA = ("faithful", "rank_deficient", "pure", "orthogonal")

# Matrix entries, trials times dim**2, that ``run_fuzz`` draws and
# evaluates as one block (64 trials at d = 4, one from d = 32 on), so its
# memory does not grow with the trial count.
_BLOCK_ENTRIES = 2**10


@dataclass(frozen=True)
class FuzzConfig:
    """Sweep configuration; trials are per dimension."""

    dims: tuple[int, ...] = (2, 3, 4)
    trials: int = 1000
    a_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    p_grid: tuple[float, ...] = (0.25, 0.5, 0.75)
    seed: int = 2026
    slack: float = 1e-9

    def __post_init__(self) -> None:
        if any(d < 2 for d in self.dims):
            raise ValueError("all dimensions must be at least 2")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if any(not 0.0 < a < 1.0 for a in self.a_grid):
            raise ValueError("a-grid values must lie in (0, 1)")
        if any(not 0.0 < p < 1.0 for p in self.p_grid):
            raise ValueError("p-grid values must lie in (0, 1)")
        # negative slack is allowed: it forces failures
        if not math.isfinite(self.slack):
            raise ValueError(f"slack must be finite, got {self.slack}")


@dataclass
class CheckStats:
    """Bookkeeping for one named check.

    During a sweep the witness holds its states as arrays; ``run_fuzz``
    serialises the final witnesses once the sweep ends.
    """

    name: str
    tolerance: float
    trials: int = 0
    failures: int = 0
    near_equalities: int = 0
    worst_margin: float = math.inf
    witness: dict | None = None

    def reduce(self, margins, witness) -> None:
        """Record one block's margins, given as an array in record order.

        ``witness(i)`` builds the witness of the margin at flat index i; it
        is called only for a new worst margin.  A NaN margin fails.  The
        block's worst margin is the first of its smallest margins that are
        not NaN, and it replaces the check's worst margin when smaller, a
        NaN worst counting as +inf.  A check without a witness that meets
        no margin below +inf takes the block's first NaN margin as its
        witness, so a failure by NaN can be named and replayed.
        """
        m = np.asarray(margins, dtype=float).ravel()
        self.trials += m.size
        self.failures += int(np.count_nonzero(~(m >= -self.tolerance)))
        self.near_equalities += int(np.count_nonzero(m < _NEAR_EQUALITY))
        if not m.size:
            return
        nan = np.isnan(m)
        i = int(np.argmin(np.where(nan, np.inf, m)))
        worst = math.inf if math.isnan(self.worst_margin) else self.worst_margin
        if not m[i] < worst:
            if self.witness is not None or not nan.any():
                return
            i = int(np.argmax(nan))
        self.worst_margin = float(m[i])
        self.witness = dict(witness(i), check=self.name, margin=self.worst_margin)


@dataclass
class VerificationReport:
    config: FuzzConfig
    checks: dict[str, CheckStats]
    passed: bool

    def summary_lines(self) -> list[str]:
        lines = []
        for name in sorted(self.checks):
            st = self.checks[name]
            status = "PASS" if st.failures == 0 else "FAIL"
            lines.append(
                f"{status} {name}: trials={st.trials} failures={st.failures} "
                f"worst_margin={st.worst_margin:.3e} near_equalities={st.near_equalities}"
            )
        return lines

    def to_json(self) -> str:
        """Deterministic JSON; a non-finite margin is written as null, as is
        the worst margin of a check with zero trials."""
        return _json_text(self._doc()) + "\n"

    def _doc(self) -> dict:
        """The report as the document ``to_json`` writes."""
        checks = {}
        for name, st in self.checks.items():
            # a shallow copy: the writer only reads the witness
            checks[name] = dict(vars(st))
            if not math.isfinite(st.worst_margin):
                checks[name]["worst_margin"] = None
            if st.witness is not None and not math.isfinite(st.witness["margin"]):
                checks[name]["witness"] = dict(st.witness, margin=None)
        return {
            "config": asdict(self.config),
            "checks": checks,
            "passed": self.passed,
        }


def _json_text(value, indent: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` writes it, nested at ``indent``.

    json's encoder runs in pure Python whenever it indents, which made it a
    tenth of a small sweep; this writer lays out the same bytes.  It takes
    what a report holds: dicts with str keys, lists, tuples, str, int,
    float (written by ``float.__repr__``), bool and None.  A non-finite
    float raises ``ValueError`` and any other type ``TypeError``, as json
    does.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        # the floats of the witness matrices are most of a report: a finite
        # float is written here, without a call
        items = [
            repr(x) if type(x) is float and math.isfinite(x) else _json_text(x, inner)
            for x in value
        ]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{_json_str(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def richardson(hs, values):
    """Neville extrapolation of values(h) to h = 0.

    ``values`` holds floats, or arrays of one shape for one extrapolation
    per element; the node terms are Python floats.
    """
    h = [float(x) for x in hs]
    v = list(values)
    n = len(v)
    if n < 2 or len(h) != n:
        raise ValueError("need matching node/value lists of length >= 2")
    for j in range(1, n):
        for i in range(n - j):
            v[i] = (h[i + j] * v[i] - h[i] * v[i + 1]) / (h[i + j] - h[i])
    return v[0]


# --------------------------------------------------------------------------
# margin functions: each is the checked statement rewritten as margin >= 0.
# Values may be floats or arrays that broadcast against each other.
# --------------------------------------------------------------------------

def _grid_terms(f, *grids):
    """f of Python floats at each point of the broadcast grids.

    Terms that depend only on the a- or p-grid (-log a, 2(1-a)^2, a**p,
    h(p)) are taken with Python's math, once per distinct point, so each
    is the term of the formula on floats; numpy's array functions may
    round the last bit differently.  Scalars give one value, arrays an
    array of their broadcast shape, read-only.  The terms are kept for the
    last few grids, so a sweep takes them once, not once per block.
    """
    arrays = np.broadcast_arrays(*(np.asarray(g, dtype=float) for g in grids))
    return _grid_terms_of_bytes(f, arrays[0].shape, *(x.tobytes() for x in arrays))


@functools.lru_cache(maxsize=16)
def _grid_terms_of_bytes(f, shape: tuple, *data: bytes):
    """``_grid_terms`` of grids given by their shape and float64 bytes."""
    points = list(zip(*(np.frombuffer(x).tolist() for x in data)))
    terms = {point: f(*point) for point in dict.fromkeys(points)}
    values = [terms[point] for point in points]
    if not shape:
        return values[0]
    values = np.array(values, dtype=float).reshape(shape)
    values.flags.writeable = False
    return values


def _pinsker_scale(a: float) -> float:
    return 2.0 * (1.0 - a) ** 2


def _neg_log(a: float) -> float:
    return -math.log(a)


def _first_min(x, y):
    """min(x, y) elementwise as Python's min takes it: x unless y < x."""
    return np.where(y < x, y, x)[()]


def check_range(sa):
    """min(S_a, 1 - S_a): the value stays inside [0, 1]."""
    return _first_min(sa, 1.0 - sa)


def check_upper_T(sa, t):
    """T - S_a: the trace norm distance dominates."""
    return t - sa


def check_lower_pinsker(a, sa, t):
    """S_a - 2 (1-a)^2 T^2 / (-log a): the telescoped Pinsker bound."""
    scale = _grid_terms(_pinsker_scale, a)
    return sa - scale * t * t / _grid_terms(_neg_log, a)


def check_holevo(p, chi, t):
    """h(p) T - chi: the sharpened two-state ensemble bound."""
    return _grid_terms(binary_entropy, p) * t - chi


def check_holevo_paths(chi, chi_relative):
    """-|chi via entropies - chi via relative entropies| (path equality)."""
    return -abs(chi - chi_relative)


def maximality_margin(rho, sigma, sa):
    """Margins for the maximality characterisation, and whether it applies.

    Orthogonal pairs must sit at 1 (margin -|S_a - 1|); pairs with overlap
    tr rho sigma >= 0.1 must stay below 1 by a strict gap; other pairs are
    not tested.  ``rho`` and ``sigma`` are one pair (d, d) with ``sa`` a
    value or an array of S_a values, or N pairs (N, d, d) with ``sa`` of
    shape (N, K).  Returns (tested, margins): a bool, or an (N,) mask, and
    margins of the shape of ``sa``.
    """
    orthogonal = is_orthogonal(rho, sigma)
    overlap = np.trace(np.asarray(rho) @ np.asarray(sigma), axis1=-2, axis2=-1).real
    tested = orthogonal | (overlap >= _OVERLAP_MIN)
    if np.ndim(orthogonal):
        orthogonal = orthogonal[:, None]
    return tested, np.where(orthogonal, -abs(sa - 1.0), (1.0 - _STRICT_GAP) - sa)[()]


def check_trre_bound(q, t):
    """T - Q_{p,a}: the trace norm distance dominates the TRRE."""
    return t - q


def check_trre_overlap(p, a, overlap):
    """min(overlap - a^p, 1 - overlap): the telescoped overlap range."""
    return _first_min(overlap - _grid_terms(pow, a, p), 1.0 - overlap)


def _joint_mixture(pairs, weights) -> tuple[np.ndarray, np.ndarray]:
    """(sum w_i rho_i, sum w_i sigma_i); stacks of pairs take weights that
    broadcast against them."""
    rho_mix = sum(w * np.asarray(r, dtype=complex) for w, (r, _) in zip(weights, pairs))
    sig_mix = sum(w * np.asarray(s, dtype=complex) for w, (_, s) in zip(weights, pairs))
    return rho_mix, sig_mix


def check_joint_convexity(weights, values, mixed: float) -> float:
    """sum_i w_i S_a(rho_i||sigma_i) - S_a(sum w_i rho_i || sum w_i sigma_i).

    ``values`` holds the per-pair S_a(rho_i||sigma_i) and ``mixed`` the
    S_a of the mixed pair.
    """
    avg = sum(w * v for w, v in zip(weights, values))
    return avg - mixed


def check_limit_closed_forms(values, s0, s1) -> dict:
    """Richardson-extrapolated endpoint limits against the closed forms.

    The two finest log-spaced nodes extrapolate S_a to a -> 0 (linearly in
    1/|log a|) and to a -> 1 (linearly in 1-a); all nodes feed a Cauchy
    test that successive differences shrink, i.e. the limits exist.
    ``values`` holds S_a at the nodes along its last axis,
    ``LIMIT_NODES_ZERO`` then 1 - ``LIMIT_NODES_ONE``, and ``s0``, ``s1``
    the closed-form limits, for one pair or as arrays for many.  Returns
    margins keyed "limit_zero", "limit_one", "limit_cauchy" where the limit
    margins are minus the extrapolation discrepancy.
    """
    # the nodes on the first axis
    values = np.asarray(values, dtype=float).T
    v0, v1 = values[: len(LIMIT_NODES_ZERO)], values[len(LIMIT_NODES_ZERO) :]
    h0 = [-1.0 / math.log(a) for a in LIMIT_NODES_ZERO[-2:]]
    ex0 = richardson(h0, v0[-2:])
    ex1 = richardson(LIMIT_NODES_ONE[-2:], v1[-2:])
    cauchy0 = abs(v0[0] - v0[1]) - abs(v0[1] - v0[2])
    cauchy1 = abs(v1[0] - v1[1]) - abs(v1[1] - v1[2])
    return {
        "limit_zero": -abs(ex0 - s0),
        "limit_one": -abs(ex1 - s1),
        "limit_cauchy": _first_min(cauchy0, cauchy1),
    }


# --------------------------------------------------------------------------
# fuzz engine
# --------------------------------------------------------------------------

class _Block(NamedTuple):
    """Drawn trials of one dimension, as stacks in trial order.

    ``trials`` holds each trial's index within its dimension, ``labels``
    the keys that name it in a witness, and ``weights`` its joint
    convexity weight; the pairs and the second pairs are (n, d, d) stacks.
    """

    trials: list[int]
    labels: list[dict]
    rho: np.ndarray
    sigma: np.ndarray
    rho2: np.ndarray
    sigma2: np.ndarray
    weights: list[float]


def _one_trial(rho, sigma, rho2, sigma2, weight: float) -> _Block:
    """A block of one trial, with index 0 and no labels."""
    pairs = (np.asarray(x, dtype=complex)[None] for x in (rho, sigma, rho2, sigma2))
    return _Block([0], [{}], *pairs, [weight])


def _draw_block(config: FuzzConfig, d_index: int, dim: int, trials: range) -> _Block:
    """Draw the given trials of one dimension, in order.

    A trial's RNG gives the pair, then the second pair, then the weight,
    with the calls of the ``states`` samplers in their order, except that
    consecutive normal draws are one call, which returns the same numbers.
    The loop makes only these calls.  The states are then built as stacks,
    one per Ginibre shape, with the samplers' own stacked helpers, so each
    is the sampler's state bit for bit.
    """
    full = ("hs", dim, dim)
    # per piece kind and shape: the normal draws and the (role, position)
    # of the state they make; roles 0-3 are rho, sigma, rho2 and sigma2
    groups: dict[tuple, tuple[list, list]] = {}
    frames = []  # per orthogonal trial: (position, k, normals of its frame)
    labels, weights = [], []
    for pos, trial in enumerate(trials):
        trial_index = d_index * config.trials + trial
        stratum = STRATA[trial % len(STRATA)]
        rng = np.random.default_rng((config.seed ^ trial_index) & ((1 << 64) - 1))
        if stratum == "faithful":
            pieces = [full, full]
        elif stratum == "rank_deficient":
            r1 = int(rng.integers(1, dim))
            pieces = [("hs", dim, r1), ("hs", dim, int(rng.integers(1, dim + 1)))]
        elif stratum == "pure":
            pieces = [("pure", 1, dim)] * 2
        else:
            # orthogonal: a frame, then states on its first k columns and the rest
            u = rng.standard_normal(2 * dim * dim)
            k = int(rng.integers(1, dim))
            ra = int(rng.integers(1, k + 1))
            pieces = [("hs", k, ra), ("hs", dim - k, int(rng.integers(1, dim - k + 1)))]
            frames.append((pos, k, u))
        pieces += [full, full]
        x = rng.standard_normal(sum(2 * rows * cols for _, rows, cols in pieces))
        start = 0
        for role, piece in enumerate(pieces):
            size = 2 * piece[1] * piece[2]
            normals, targets = groups.setdefault(piece, ([], []))
            normals.append(x[start : start + size])
            targets.append((role, pos))
            start += size
        weights.append(float(rng.uniform(0.0, 1.0)))
        labels.append({"dim": dim, "trial": trial_index, "stratum": stratum})

    out = np.empty((4, len(labels), dim, dim), dtype=complex)
    inner = {}  # (role, position) -> state on one side of an orthogonal frame
    for (kind, rows, cols), (normals, targets) in groups.items():
        G = _ginibre(np.stack(normals), rows, cols)
        made = _pure_states(G[:, 0]) if kind == "pure" else _hs_states(G)
        if kind == "pure" or rows == dim:
            roles, positions = zip(*targets)
            out[list(roles), list(positions)] = made
        else:
            inner.update(zip(targets, made))
    if frames:
        positions, ks, normals = zip(*frames)
        U = _haar_frames(_ginibre(np.stack(normals), dim, dim))
        for k in dict.fromkeys(ks):
            members = [i for i, k_i in enumerate(ks) if k_i == k]
            group = [positions[i] for i in members]
            # the group's frames as whole matrices, sliced as one frame is
            V = U[members]
            for role, side in ((0, V[..., :k]), (1, V[..., k:])):
                out[role, group] = _embed(side, np.stack([inner[role, p] for p in group]))
    return _Block(list(trials), labels, *out, weights)


def _record_block(a_grid: tuple, p_grid: tuple, checks, block: _Block) -> None:
    """Evaluate a block of drawn trials and record every check.

    Every quantity of the block is one stacked call of its public
    function, made inside one ``_block_core`` scope, so the calls on the
    block's pairs share one spectral core: S_a on the a-grid and the limit
    nodes, the closed forms S_0 and S_1, and both Holevo paths, which
    share rho's and sigma's spectra and one decomposition of the Holevo
    mixtures.  The overlaps come from the core itself and take the
    compressed mixtures of the first S_a call.  The joint convexity pairs
    get a core of their own and T one stacked eigvalsh.  A trial's joint
    convexity a and Holevo p are picked from the grids by its index within
    its dimension.  Each check's margins are one array in record order
    (trial, then p, then a), reduced by its ``CheckStats`` in one step, so
    ties keep the first witness.
    """
    trials, labels, rho, sigma, rho2, sigma2, weights = block
    n, n_a, n_p = len(trials), len(a_grid), len(p_grid)
    a_jc = [a_grid[trial % n_a] for trial in trials]
    p_h = [p_grid[trial % n_p] for trial in trials]
    w = np.array(weights)
    jc_weights = (w, 1.0 - w)
    mixed = _joint_mixture(
        [(rho, sigma), (rho2, sigma2)], [x[:, None, None] for x in jc_weights]
    )

    a_nodes = a_grid + _LIMIT_A
    with _block_core(rho, sigma) as core:
        sa = telescopic_relative_entropy(rho, sigma, a_nodes)
        # the overlaps of the S_a call's mixtures, at the a-grid's columns
        overlaps = core.overlaps(p_grid, a_nodes)[:, :, :n_a]
        s0, s1 = telescopic_relative_entropy(rho, sigma, (0.0, 1.0)).T
        # the joint convexity call takes the second pairs, then the mixed pairs
        jc_sa = telescopic_relative_entropy(
            np.concatenate([rho2, mixed[0]]),
            np.concatenate([sigma2, mixed[1]]),
            np.array(a_jc + a_jc)[:, None],
        )[:, 0]
        t = trace_norm_distance(rho, sigma)
        chi = holevo_two(np.array(p_h), rho, sigma)
        chi_relative = holevo_two_via_relative(np.array(p_h), rho, sigma)

    def of_trial(b):
        return dict(labels[b], rho=rho[b], sigma=sigma[b])

    def at_a(b, k):
        return dict(of_trial(b), a=a_grid[k])

    def cell(i):
        return at_a(*divmod(i, n_a))

    def tested_cell(i):
        return at_a(rows[i // n_a], i % n_a)

    def at_p(b):
        return dict(of_trial(b), p=p_h[b])

    def trre_cell(i):
        b, j, k = np.unravel_index(i, overlaps.shape)
        return dict(at_a(b, k), p=p_grid[j])

    def with_second_pair(b):
        return dict(of_trial(b), a=a_jc[b], weight=weights[b], rho2=rho2[b], sigma2=sigma2[b])

    sa_grid, t_col = sa[:, :n_a], t[:, None]
    a, p = np.array(a_grid), np.array(p_grid)[:, None]
    jc_values = [sa_grid[np.arange(n), np.array(trials) % n_a], jc_sa[:n]]
    # margins of non-finite values are NaN or infinite, and fail, without a warning
    with np.errstate(invalid="ignore"):
        tested, maximality = maximality_margin(rho, sigma, sa_grid)
        rows = np.flatnonzero(tested)
        q = (1.0 - overlaps) / (1.0 - _grid_terms(pow, a, p))
        margins = {
            "range": (check_range(sa_grid), cell),
            "upper_T": (check_upper_T(sa_grid, t_col), cell),
            "lower_pinsker": (check_lower_pinsker(a, sa_grid, t_col), cell),
            "maximality": (maximality[rows], tested_cell),
            "holevo": (check_holevo(np.array(p_h), chi, t), at_p),
            "holevo_paths": (check_holevo_paths(chi, chi_relative), at_p),
            "trre_bound": (check_trre_bound(q, t[:, None, None]), trre_cell),
            "trre_overlap": (check_trre_overlap(p, a, overlaps), trre_cell),
            "joint_convexity": (
                check_joint_convexity(jc_weights, jc_values, jc_sa[n:]),
                with_second_pair,
            ),
        }
        limits = check_limit_closed_forms(sa[:, n_a:], s0, s1)
    margins.update((name, (limit, of_trial)) for name, limit in limits.items())
    for name, (margin, witness) in margins.items():
        checks[name].reduce(margin, witness)


def _fresh_checks(slack: float) -> dict[str, CheckStats]:
    """Empty statistics for every check; the limit checks have fixed tolerances."""
    checks = {
        name: CheckStats(name, slack)
        for name in (
            "range",
            "upper_T",
            "lower_pinsker",
            "holevo",
            "holevo_paths",
            "maximality",
            "trre_bound",
            "trre_overlap",
            "joint_convexity",
        )
    }
    checks["limit_zero"] = CheckStats("limit_zero", 1e-3)
    checks["limit_one"] = CheckStats("limit_one", 1e-3)
    checks["limit_cauchy"] = CheckStats("limit_cauchy", 1e-4)
    return checks


def run_fuzz(config: FuzzConfig = FuzzConfig()) -> VerificationReport:
    """Execute every check over the configured sweep.

    Check failures are recorded in the report, never raised.  Reports for
    identical configs are identical; trial RNGs derive from
    seed XOR trial_index, so any worst-case witness can be regenerated.
    """
    checks = _fresh_checks(config.slack)
    for d_index, dim in enumerate(config.dims):
        size = max(1, _BLOCK_ENTRIES // dim**2)
        for start in range(0, config.trials, size):
            trials = range(start, min(start + size, config.trials))
            block = _draw_block(config, d_index, dim, trials)
            _record_block(config.a_grid, config.p_grid, checks, block)

    # trial inputs are never mutated, so a witness can hold them until now
    for st in checks.values():
        for key in ("rho", "sigma", "rho2", "sigma2"):
            if st.witness is not None and key in st.witness:
                st.witness[key] = state_to_jsonable(st.witness[key])
    passed = all(st.failures == 0 for st in checks.values())
    return VerificationReport(config=config, checks=checks, passed=passed)


def replay_witness(witness: dict) -> float:
    """Recompute a recorded witness's margin from its serialized inputs.

    The witness runs as a one-trial block through the sweep's own
    evaluation, with its a and p as the grids, so the replayed margin is
    the recorded one.  A check that reads no a or no p gets 1/2 there, and
    a witness without a second pair lends its own pair to the joint
    convexity check, which alone reads it.
    """
    # a one-trial sweep of the witness's a and p, which it validates
    config = FuzzConfig(
        trials=1, a_grid=(witness.get("a", 0.5),), p_grid=(witness.get("p", 0.5),)
    )
    checks = _fresh_checks(config.slack)
    name = witness["check"]
    if name not in checks:
        raise ValueError(f"unknown check {name!r}")
    rho = state_from_jsonable(witness["rho"])
    sigma = state_from_jsonable(witness["sigma"])
    if "rho2" in witness:
        second = [state_from_jsonable(witness[key]) for key in ("rho2", "sigma2")]
    else:
        second = [rho, sigma]
    block = _one_trial(rho, sigma, *second, witness.get("weight", 0.5))
    _record_block(config.a_grid, config.p_grid, checks, block)
    if checks[name].trials == 0:
        raise ValueError(f"witness pair does not exercise the {name} check")
    return checks[name].worst_margin
