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

    def record(self, margin: float, witness: dict) -> None:
        self.trials += 1
        # a NaN margin fails too
        if not margin >= -self.tolerance:
            self.failures += 1
        if margin < _NEAR_EQUALITY:
            self.near_equalities += 1
        if margin < self.worst_margin:
            self.worst_margin = margin
            witness = dict(witness)
            witness["check"] = self.name
            witness["margin"] = margin
            self.witness = witness


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


def richardson(hs, values) -> float:
    """Neville extrapolation of values(h) to h = 0."""
    h = [float(x) for x in hs]
    v = [float(x) for x in values]
    n = len(v)
    if n < 2 or len(h) != n:
        raise ValueError("need matching node/value lists of length >= 2")
    for j in range(1, n):
        for i in range(n - j):
            v[i] = (h[i + j] * v[i] - h[i] * v[i + 1]) / (h[i + j] - h[i])
    return v[0]


# --------------------------------------------------------------------------
# margin functions: each is the checked statement rewritten as margin >= 0
# --------------------------------------------------------------------------

def check_range(sa: float) -> float:
    """min(S_a, 1 - S_a): the value stays inside [0, 1]."""
    return min(sa, 1.0 - sa)


def check_upper_T(sa: float, t: float) -> float:
    """T - S_a: the trace norm distance dominates."""
    return t - sa


def check_lower_pinsker(a: float, sa: float, t: float) -> float:
    """S_a - 2 (1-a)^2 T^2 / (-log a): the telescoped Pinsker bound."""
    return sa - 2.0 * (1.0 - a) ** 2 * t * t / (-math.log(a))


def check_holevo(p: float, chi: float, t: float) -> float:
    """h(p) T - chi: the sharpened two-state ensemble bound."""
    return binary_entropy(p) * t - chi


def check_holevo_paths(chi: float, chi_relative: float) -> float:
    """-|chi via entropies - chi via relative entropies| (path equality)."""
    return -abs(chi - chi_relative)


def maximality_margin(rho, sigma, sa):
    """Margin for the maximality characterisation, or None when untested.

    Orthogonal pairs must sit at 1 (margin -|S_a - 1|); pairs with overlap
    tr rho sigma >= 0.1 must stay below 1 by a strict gap.  ``sa`` may be
    an array of S_a values, for an array of margins from one test of the
    pair.
    """
    if is_orthogonal(rho, sigma):
        return -abs(sa - 1.0)
    overlap = float(np.real(np.trace(np.asarray(rho) @ np.asarray(sigma))))
    if overlap >= _OVERLAP_MIN:
        return (1.0 - _STRICT_GAP) - sa
    return None


def check_trre_bound(q: float, t: float) -> float:
    """T - Q_{p,a}: the trace norm distance dominates the TRRE."""
    return t - q


def check_trre_overlap(p: float, a: float, overlap: float) -> float:
    """min(overlap - a^p, 1 - overlap): the telescoped overlap range."""
    return min(overlap - a**p, 1.0 - overlap)


def _joint_mixture(pairs, weights) -> tuple[np.ndarray, np.ndarray]:
    """(sum w_i rho_i, sum w_i sigma_i)."""
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


def check_limit_closed_forms(values, s0: float, s1: float) -> dict[str, float]:
    """Richardson-extrapolated endpoint limits against the closed forms.

    The two finest log-spaced nodes extrapolate S_a to a -> 0 (linearly in
    1/|log a|) and to a -> 1 (linearly in 1-a); all nodes feed a Cauchy
    test that successive differences shrink, i.e. the limits exist.
    ``values`` holds S_a at the nodes, ``LIMIT_NODES_ZERO`` then
    1 - ``LIMIT_NODES_ONE``, and ``s0``, ``s1`` the closed-form limits.
    Returns margins keyed "limit_zero", "limit_one", "limit_cauchy" where
    the limit margins are minus the extrapolation discrepancy.
    """
    v0, v1 = values[: len(LIMIT_NODES_ZERO)], values[len(LIMIT_NODES_ZERO) :]
    h0 = [-1.0 / math.log(a) for a in LIMIT_NODES_ZERO[-2:]]
    ex0 = richardson(h0, v0[-2:])
    ex1 = richardson(LIMIT_NODES_ONE[-2:], v1[-2:])
    cauchy0 = abs(v0[0] - v0[1]) - abs(v0[1] - v0[2])
    cauchy1 = abs(v1[0] - v1[1]) - abs(v1[1] - v1[2])
    return {
        "limit_zero": -abs(ex0 - s0),
        "limit_one": -abs(ex1 - s1),
        "limit_cauchy": min(cauchy0, cauchy1),
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
    """Evaluate drawn trials and record every check, in trial order.

    Every quantity of the block comes from one stacked call each, made
    inside one ``_block_spectra`` scope, so the calls share the spectra of
    rho, sigma and the Holevo mixtures.  The closed forms S_0 and S_1 are
    the a = 0 and a = 1 cells of the first S_a call.  A trial's joint
    convexity a and Holevo p are picked from the grids by its index within
    its dimension.
    """
    n_a = len(a_grid)
    trials, bases, rhos2, sigmas2, weights = (list(column) for column in zip(*draws))
    rhos = [base["rho"] for base in bases]
    sigmas = [base["sigma"] for base in bases]
    jc_weights = [(w, 1.0 - w) for w in weights]
    mixtures = [
        _joint_mixture([(r, s), (r2, s2)], w)
        for r, s, r2, s2, w in zip(rhos, sigmas, rhos2, sigmas2, jc_weights)
    ]
    a_jc = [a_grid[trial % n_a] for trial in trials]
    p_h = [p_grid[trial % len(p_grid)] for trial in trials]

    pairs = np.stack(rhos), np.stack(sigmas)
    with _block_spectra():
        sa = telescopic_relative_entropy(*pairs, a_grid + _LIMIT_A + (0.0, 1.0)).tolist()
        overlaps = _overlap_grid(*pairs, p_grid, a_grid).tolist()
        # the joint convexity call takes the second pairs, then the mixed pairs
        jc_sa = telescopic_relative_entropy(
            np.stack(rhos2 + [m[0] for m in mixtures]),
            np.stack(sigmas2 + [m[1] for m in mixtures]),
            np.array(a_jc + a_jc)[:, None],
        )[:, 0].tolist()
        ts = trace_norm_distance(*pairs).tolist()
        chis = holevo_two(np.array(p_h), *pairs).tolist()
        chis_relative = holevo_two_via_relative(np.array(p_h), *pairs).tolist()

    for b, (trial, base) in enumerate(zip(trials, bases)):
        rho, sigma = base["rho"], base["sigma"]
        t = ts[b]

        sa_grid = sa[b][:n_a]
        mmax = maximality_margin(rho, sigma, np.array(sa_grid))
        for k, (a, s_a) in enumerate(zip(a_grid, sa_grid)):
            wit = dict(base, a=a)
            checks["range"].record(check_range(s_a), wit)
            checks["upper_T"].record(check_upper_T(s_a, t), wit)
            checks["lower_pinsker"].record(check_lower_pinsker(a, s_a, t), wit)
            if mmax is not None:
                checks["maximality"].record(float(mmax[k]), wit)

        wit = dict(base, p=p_h[b])
        checks["holevo"].record(check_holevo(p_h[b], chis[b], t), wit)
        checks["holevo_paths"].record(check_holevo_paths(chis[b], chis_relative[b]), wit)

        for p, row in zip(p_grid, overlaps[b]):
            for a, overlap in zip(a_grid, row):
                q = (1.0 - overlap) / (1.0 - a**p)
                wit = dict(base, p=p, a=a)
                checks["trre_bound"].record(check_trre_bound(q, t), wit)
                checks["trre_overlap"].record(check_trre_overlap(p, a, overlap), wit)

        a = a_jc[b]
        wit = dict(base, a=a, weight=weights[b], rho2=rhos2[b], sigma2=sigmas2[b])
        values = [sa[b][a_grid.index(a)], jc_sa[b]]
        margin = check_joint_convexity(jc_weights[b], values, jc_sa[len(draws) + b])
        checks["joint_convexity"].record(margin, wit)

        *nodes, s0, s1 = sa[b][n_a:]
        for name, margin in check_limit_closed_forms(nodes, s0, s1).items():
            checks[name].record(margin, dict(base))


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
