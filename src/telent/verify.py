"""Randomized property-test engine.

Sweeps sampled state pairs (faithful, rank-deficient, pure, and
orthogonal-by-construction strata) through every inequality and identity
the library implements, reporting per-check trial counts, failures, worst
signed margins, and serialized counterexample witnesses.  A margin is the
inequality restated as "margin >= 0"; a check fails when its margin drops
below minus the configured slack.

Trials are independent and derive their RNG streams as
``master_seed XOR trial_index``, so reports are deterministic for a fixed
seed and any trial can be replayed in isolation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .matfun import trace_norm_distance
from .renyi import _overlap_grid, renyi_overlap_telescoped, trre
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
    tre_limit_one,
    tre_limit_zero,
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
        if margin < -self.tolerance:
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
        """Deterministic JSON; a check with zero trials has a null worst margin."""
        checks = {}
        for name, st in self.checks.items():
            checks[name] = asdict(st)
            if st.trials == 0:
                checks[name]["worst_margin"] = None
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

def check_range(rho, sigma, a: float, sa: float | None = None) -> float:
    """min(S_a, 1 - S_a): the value stays inside [0, 1]."""
    if sa is None:
        sa = telescopic_relative_entropy(rho, sigma, a)
    return min(sa, 1.0 - sa)


def check_upper_T(rho, sigma, a: float, sa=None, t=None) -> float:
    """T - S_a: the trace norm distance dominates."""
    if sa is None:
        sa = telescopic_relative_entropy(rho, sigma, a)
    if t is None:
        t = trace_norm_distance(rho, sigma)
    return t - sa


def check_lower_pinsker(rho, sigma, a: float, sa=None, t=None) -> float:
    """S_a - 2 (1-a)^2 T^2 / (-log a): the telescoped Pinsker bound."""
    if sa is None:
        sa = telescopic_relative_entropy(rho, sigma, a)
    if t is None:
        t = trace_norm_distance(rho, sigma)
    return sa - 2.0 * (1.0 - a) ** 2 * t * t / (-math.log(a))


def check_holevo(p: float, rho, sigma, chi=None, t=None) -> float:
    """h(p) T - chi: the sharpened two-state ensemble bound."""
    if chi is None:
        chi = holevo_two(p, rho, sigma)
    if t is None:
        t = trace_norm_distance(rho, sigma)
    return binary_entropy(p) * t - chi


def check_holevo_paths(p: float, rho, sigma, chi=None) -> float:
    """-|chi via entropies - chi via relative entropies| (path equality)."""
    if chi is None:
        chi = holevo_two(p, rho, sigma)
    return -abs(chi - holevo_two_via_relative(p, rho, sigma))


def maximality_margin(rho, sigma, a, sa=None):
    """Margin for the maximality characterisation, or None when untested.

    Orthogonal pairs must sit at 1 (margin -|S_a - 1|); pairs with overlap
    tr rho sigma >= 0.1 must stay below 1 by a strict gap.  ``a`` (and
    ``sa``, S_a at ``a``) may be an array of a-values, for an array of
    margins from one test of the pair.
    """
    if sa is None:
        sa = telescopic_relative_entropy(rho, sigma, a)
    if is_orthogonal(rho, sigma):
        return -abs(sa - 1.0)
    overlap = float(np.real(np.trace(np.asarray(rho) @ np.asarray(sigma))))
    if overlap >= _OVERLAP_MIN:
        return (1.0 - _STRICT_GAP) - sa
    return None


def check_trre_bound(rho, sigma, p: float, a: float, q=None, t=None) -> float:
    """T - Q_{p,a}: the trace norm distance dominates the TRRE."""
    if q is None:
        q = trre(rho, sigma, p, a)
    if t is None:
        t = trace_norm_distance(rho, sigma)
    return t - q


def check_trre_overlap(rho, sigma, p: float, a: float, overlap=None) -> float:
    """min(overlap - a^p, 1 - overlap): the telescoped overlap range."""
    if overlap is None:
        overlap = renyi_overlap_telescoped(rho, sigma, p, a)
    return min(overlap - a**p, 1.0 - overlap)


def _joint_mixture(pairs, weights) -> tuple[np.ndarray, np.ndarray]:
    """(sum w_i rho_i, sum w_i sigma_i)."""
    rho_mix = sum(w * np.asarray(r, dtype=complex) for w, (r, _) in zip(weights, pairs))
    sig_mix = sum(w * np.asarray(s, dtype=complex) for w, (_, s) in zip(weights, pairs))
    return rho_mix, sig_mix


def check_joint_convexity(pairs, weights, a: float, values=None, mixed=None) -> float:
    """sum_i w_i S_a(rho_i||sigma_i) - S_a(sum w_i rho_i || sum w_i sigma_i).

    ``values`` optionally holds the per-pair S_a(rho_i||sigma_i) and
    ``mixed`` the S_a of the mixed pair.
    """
    if len(pairs) != len(weights):
        raise ValueError("need one weight per pair")
    if values is None:
        values = [telescopic_relative_entropy(r, s, a) for r, s in pairs]
    elif len(values) != len(pairs):
        raise ValueError("need one value per pair")
    if mixed is None:
        mixed = telescopic_relative_entropy(*_joint_mixture(pairs, weights), a)
    avg = sum(w * v for w, v in zip(weights, values))
    return avg - mixed


def check_limit_closed_forms(rho, sigma, values=None) -> dict[str, float]:
    """Richardson-extrapolated endpoint limits against the closed forms.

    The two finest log-spaced nodes extrapolate S_a to a -> 0 (linearly in
    1/|log a|) and to a -> 1 (linearly in 1-a); all nodes feed a Cauchy
    test that successive differences shrink, i.e. the limits exist.
    ``values`` optionally holds S_a at the nodes, ``LIMIT_NODES_ZERO``
    then 1 - ``LIMIT_NODES_ONE``.  Returns margins keyed "limit_zero",
    "limit_one", "limit_cauchy" where the limit margins are minus the
    extrapolation discrepancy.
    """
    if values is None:
        values = telescopic_relative_entropy(rho, sigma, _LIMIT_A).tolist()
    v0, v1 = values[: len(LIMIT_NODES_ZERO)], values[len(LIMIT_NODES_ZERO) :]
    h0 = [-1.0 / math.log(a) for a in LIMIT_NODES_ZERO[-2:]]
    ex0 = richardson(h0, v0[-2:])
    ex1 = richardson(LIMIT_NODES_ONE[-2:], v1[-2:])
    cauchy0 = abs(v0[0] - v0[1]) - abs(v0[1] - v0[2])
    cauchy1 = abs(v1[0] - v1[1]) - abs(v1[1] - v1[2])
    return {
        "limit_zero": -abs(ex0 - tre_limit_zero(rho, sigma)),
        "limit_one": -abs(ex1 - tre_limit_one(rho, sigma)),
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


def _sweep_block(config: FuzzConfig, checks, d_index: int, dim: int, trials: range) -> None:
    """Draw, evaluate and record the given trials of one dimension, in order.

    Every S_a and overlap of the block comes from three stacked calls.
    """
    a_grid, p_grid = config.a_grid, config.p_grid
    n_a = len(a_grid)
    # a trial's RNG gives the pair, then the second pair, then the weight
    draws = []
    for trial in trials:
        trial_index = d_index * config.trials + trial
        rng = np.random.default_rng((config.seed ^ trial_index) & ((1 << 64) - 1))
        rho, sigma = _sample_pair(dim, STRATA[trial % len(STRATA)], rng)
        rho2, sigma2 = _sample_pair(dim, "faithful", rng)
        draws.append((rho, sigma, rho2, sigma2, float(rng.uniform(0.0, 1.0))))
    rhos, sigmas, rhos2, sigmas2, weights = (list(column) for column in zip(*draws))
    jc_pairs = [[(r, s), (r2, s2)] for r, s, r2, s2 in zip(rhos, sigmas, rhos2, sigmas2)]
    jc_weights = [(w, 1.0 - w) for w in weights]
    mixtures = [_joint_mixture(*args) for args in zip(jc_pairs, jc_weights)]
    a_jc = [a_grid[trial % n_a] for trial in trials]

    # the joint convexity call takes the second pairs, then the mixed pairs
    sa = telescopic_relative_entropy(
        np.stack(rhos), np.stack(sigmas), a_grid + _LIMIT_A
    ).tolist()
    overlaps = _overlap_grid(np.stack(rhos), np.stack(sigmas), p_grid, a_grid).tolist()
    jc_sa = telescopic_relative_entropy(
        np.stack(rhos2 + [m[0] for m in mixtures]),
        np.stack(sigmas2 + [m[1] for m in mixtures]),
        np.array(a_jc + a_jc)[:, None],
    )[:, 0].tolist()

    for b, trial in enumerate(trials):
        trial_index = d_index * config.trials + trial
        rho, sigma = rhos[b], sigmas[b]
        base = {
            "dim": dim,
            "trial": trial_index,
            "stratum": STRATA[trial % len(STRATA)],
            "rho": rho,
            "sigma": sigma,
        }
        t = trace_norm_distance(rho, sigma)

        sa_grid = sa[b][:n_a]
        mmax = maximality_margin(rho, sigma, a_grid, sa=np.array(sa_grid))
        for k, (a, s_a) in enumerate(zip(a_grid, sa_grid)):
            wit = dict(base, a=a)
            checks["range"].record(check_range(rho, sigma, a, sa=s_a), wit)
            checks["upper_T"].record(check_upper_T(rho, sigma, a, sa=s_a, t=t), wit)
            checks["lower_pinsker"].record(
                check_lower_pinsker(rho, sigma, a, sa=s_a, t=t), wit
            )
            if mmax is not None:
                checks["maximality"].record(float(mmax[k]), wit)

        p_h = p_grid[trial % len(p_grid)]
        wit = dict(base, p=p_h)
        chi = holevo_two(p_h, rho, sigma)
        checks["holevo"].record(check_holevo(p_h, rho, sigma, chi=chi, t=t), wit)
        checks["holevo_paths"].record(check_holevo_paths(p_h, rho, sigma, chi=chi), wit)

        for p, row in zip(p_grid, overlaps[b]):
            for a, overlap in zip(a_grid, row):
                q = (1.0 - overlap) / (1.0 - a**p)
                wit = dict(base, p=p, a=a)
                checks["trre_bound"].record(
                    check_trre_bound(rho, sigma, p, a, q=q, t=t), wit
                )
                checks["trre_overlap"].record(
                    check_trre_overlap(rho, sigma, p, a, overlap=overlap), wit
                )

        a = a_jc[b]
        wit = dict(base, a=a, weight=weights[b], rho2=rhos2[b], sigma2=sigmas2[b])
        checks["joint_convexity"].record(
            check_joint_convexity(
                jc_pairs[b],
                jc_weights[b],
                a,
                values=[sa[b][a_grid.index(a)], jc_sa[b]],
                mixed=jc_sa[len(trials) + b],
            ),
            wit,
        )

        limit_margins = check_limit_closed_forms(rho, sigma, values=sa[b][n_a:])
        for name, margin in limit_margins.items():
            checks[name].record(margin, dict(base))


def run_fuzz(config: FuzzConfig = FuzzConfig()) -> VerificationReport:
    """Execute every check over the configured sweep.

    Check failures are recorded in the report, never raised.  Reports for
    identical configs are identical; trial RNGs derive from
    seed XOR trial_index, so any worst-case witness can be regenerated.
    """
    slack = config.slack
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

    for d_index, dim in enumerate(config.dims):
        block = max(1, _BLOCK_ENTRIES // dim**2)
        for start in range(0, config.trials, block):
            trials = range(start, min(start + block, config.trials))
            _sweep_block(config, checks, d_index, dim, trials)

    # trial inputs are never mutated, so a witness can hold them until now
    for st in checks.values():
        for key in ("rho", "sigma", "rho2", "sigma2"):
            if st.witness is not None and key in st.witness:
                st.witness[key] = state_to_jsonable(st.witness[key])
    passed = all(st.failures == 0 for st in checks.values())
    return VerificationReport(config=config, checks=checks, passed=passed)


def replay_witness(witness: dict) -> float:
    """Recompute a recorded witness's margin from its serialized inputs."""
    name = witness["check"]
    rho = state_from_jsonable(witness["rho"])
    sigma = state_from_jsonable(witness["sigma"])
    a = witness.get("a")
    p = witness.get("p")
    if name == "range":
        return check_range(rho, sigma, a)
    if name == "upper_T":
        return check_upper_T(rho, sigma, a)
    if name == "lower_pinsker":
        return check_lower_pinsker(rho, sigma, a)
    if name == "holevo":
        return check_holevo(p, rho, sigma)
    if name == "holevo_paths":
        return check_holevo_paths(p, rho, sigma)
    if name == "maximality":
        margin = maximality_margin(rho, sigma, a)
        if margin is None:
            raise ValueError("witness pair does not exercise the maximality check")
        return margin
    if name == "trre_bound":
        return check_trre_bound(rho, sigma, p, a)
    if name == "trre_overlap":
        return check_trre_overlap(rho, sigma, p, a)
    if name == "joint_convexity":
        rho2 = state_from_jsonable(witness["rho2"])
        sigma2 = state_from_jsonable(witness["sigma2"])
        w = witness["weight"]
        return check_joint_convexity(
            [(rho, sigma), (rho2, sigma2)], (w, 1.0 - w), a
        )
    if name in ("limit_zero", "limit_one", "limit_cauchy"):
        return check_limit_closed_forms(rho, sigma)[name]
    raise ValueError(f"unknown check {name!r}")
