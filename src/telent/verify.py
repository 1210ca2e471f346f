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

The sweep works in blocks of trials.  Each quantity of a block is one
stacked call, each check's margins are one array in record order (trial,
then p, then a), and ``CheckStats.reduce`` takes that array in one step,
building a witness only for a new worst margin.  Every margin function
is the one formula of its check, on floats or on arrays; the terms that
depend only on the a- and p-grids are taken with Python's math, once per
grid point.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .matfun import _block_spectra, trace_norm_distance
from .renyi import _overlap_grid
from .states import (
    haar_random_pure,
    is_orthogonal,
    random_mixed_hs,
    random_orthogonal_pair,
    state_from_jsonable,
    state_to_jsonable,
)
from .tre import (
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
        checks = {}
        for name, st in self.checks.items():
            # a shallow copy: json.dumps only reads the witness
            checks[name] = dict(vars(st))
            if not math.isfinite(st.worst_margin):
                checks[name]["worst_margin"] = None
            if st.witness is not None and not math.isfinite(st.witness["margin"]):
                checks[name]["witness"] = dict(st.witness, margin=None)
        doc = {
            "config": asdict(self.config),
            "checks": checks,
            "passed": self.passed,
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    array of their broadcast shape.
    """
    arrays = np.broadcast_arrays(*(np.asarray(g, dtype=float) for g in grids))
    points = list(zip(*(x.ravel().tolist() for x in arrays)))
    terms = {point: f(*point) for point in dict.fromkeys(points)}
    values = [terms[point] for point in points]
    if arrays[0].ndim == 0:
        return values[0]
    return np.array(values, dtype=float).reshape(arrays[0].shape)


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
    scale = _grid_terms(lambda x: 2.0 * (1.0 - x) ** 2, a)
    return sa - scale * t * t / _grid_terms(lambda x: -math.log(x), a)


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

def _sample_pair(dim: int, stratum: str, rng: np.random.Generator):
    if stratum == "faithful":
        return random_mixed_hs(dim, dim, rng), random_mixed_hs(dim, dim, rng)
    if stratum == "rank_deficient":
        r1 = int(rng.integers(1, dim))
        r2 = int(rng.integers(1, dim + 1))
        return random_mixed_hs(dim, r1, rng), random_mixed_hs(dim, r2, rng)
    if stratum == "pure":
        return haar_random_pure(dim, rng), haar_random_pure(dim, rng)
    if stratum == "orthogonal":
        return random_orthogonal_pair(dim, rng)
    raise ValueError(f"unknown stratum {stratum!r}")


def _draw_block(config: FuzzConfig, d_index: int, dim: int, trials: range) -> list[tuple]:
    """Draw the given trials of one dimension, in order.

    A trial's RNG gives the pair, then the second pair, then the weight.
    Each draw is (trial, witness base, rho2, sigma2, weight), the base
    naming the trial and holding its pair.
    """
    draws = []
    for trial in trials:
        trial_index = d_index * config.trials + trial
        stratum = STRATA[trial % len(STRATA)]
        rng = np.random.default_rng((config.seed ^ trial_index) & ((1 << 64) - 1))
        rho, sigma = _sample_pair(dim, stratum, rng)
        base = {"dim": dim, "trial": trial_index, "stratum": stratum, "rho": rho, "sigma": sigma}
        rho2, sigma2 = _sample_pair(dim, "faithful", rng)
        draws.append((trial, base, rho2, sigma2, float(rng.uniform(0.0, 1.0))))
    return draws


def _record_block(a_grid: tuple, p_grid: tuple, checks, draws) -> None:
    """Evaluate drawn trials and record every check.

    Every quantity of the block comes from one stacked call each, made
    inside one ``_block_spectra`` scope, so the calls share the spectra of
    rho, sigma and the Holevo mixtures.  The closed forms S_0 and S_1 are
    the a = 0 and a = 1 cells of the first S_a call.  A trial's joint
    convexity a and Holevo p are picked from the grids by its index within
    its dimension.  Each check's margins are one array in record order
    (trial, then p, then a), reduced by its ``CheckStats`` in one step, so
    ties keep the first witness.
    """
    n, n_a, n_p = len(draws), len(a_grid), len(p_grid)
    trials, bases, rhos2, sigmas2, weights = (list(column) for column in zip(*draws))
    a_jc = [a_grid[trial % n_a] for trial in trials]
    p_h = [p_grid[trial % n_p] for trial in trials]
    rho = np.stack([base["rho"] for base in bases])
    sigma = np.stack([base["sigma"] for base in bases])
    rho2, sigma2 = np.stack(rhos2), np.stack(sigmas2)
    w = np.array(weights)
    jc_weights = (w, 1.0 - w)
    mixed = _joint_mixture(
        [(rho, sigma), (rho2, sigma2)], [x[:, None, None] for x in jc_weights]
    )

    with _block_spectra():
        sa = telescopic_relative_entropy(rho, sigma, a_grid + _LIMIT_A + (0.0, 1.0))
        overlaps = _overlap_grid(rho, sigma, p_grid, a_grid)
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
        return dict(bases[b])

    def at_a(b, k):
        return dict(bases[b], a=a_grid[k])

    def cell(i):
        return at_a(*divmod(i, n_a))

    def tested_cell(i):
        return at_a(rows[i // n_a], i % n_a)

    def at_p(b):
        return dict(bases[b], p=p_h[b])

    def trre_cell(i):
        b, j, k = np.unravel_index(i, overlaps.shape)
        return dict(at_a(b, k), p=p_grid[j])

    def with_second_pair(b):
        return dict(bases[b], a=a_jc[b], weight=weights[b], rho2=rhos2[b], sigma2=sigmas2[b])

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
        limits = check_limit_closed_forms(sa[:, n_a:-2], sa[:, -2], sa[:, -1])
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
        block = max(1, _BLOCK_ENTRIES // dim**2)
        for start in range(0, config.trials, block):
            trials = range(start, min(start + block, config.trials))
            draws = _draw_block(config, d_index, dim, trials)
            _record_block(config.a_grid, config.p_grid, checks, draws)

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
    draw = (0, {"rho": rho, "sigma": sigma}, *second, witness.get("weight", 0.5))
    _record_block(config.a_grid, config.p_grid, checks, [draw])
    if checks[name].trials == 0:
        raise ValueError(f"witness pair does not exercise the {name} check")
    return checks[name].worst_margin
