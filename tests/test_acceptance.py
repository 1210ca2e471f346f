"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything is seeded and deterministic.
"""

import json
import math

import numpy as np
import pytest

from helpers import random_hermitian, random_pd, random_state_floor, state_power
from telent.cli import FIG1_A_VALUES, FigureSpec, figure_rows, main
from telent.matfun import (
    frechet_log_map,
    frechet_power_map,
    trace_norm_distance,
)
from telent.oracle import (
    finite_diff_frechet,
    quad_frechet_log,
    quad_frechet_power,
    quad_log,
    quad_power,
    quad_tre,
)
from telent.renyi import renyi_overlap_telescoped, trre
from telent.states import (
    haar_random_pure,
    pure_from_vector,
    random_mixed_hs,
    random_orthogonal_pair,
    telescope_mix,
)
from telent.tre import (
    binary_entropy,
    holevo_two,
    holevo_two_via_relative,
    relative_entropy,
    telescopic_relative_entropy,
    tre_limit_one,
    tre_limit_zero,
    tre_pure_closed_form,
)
from telent.verify import (
    LIMIT_NODES_ONE,
    LIMIT_NODES_ZERO,
    check_limit_closed_forms,
    richardson,
)

SEED = 20260810
STRATA = ("faithful", "rank_deficient", "pure", "orthogonal")
# the a-nodes whose S_a the limit checks extrapolate
LIMIT_A = LIMIT_NODES_ZERO + tuple(1.0 - e for e in LIMIT_NODES_ONE)


def _report(num, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}{detail}")
    assert ok, f"criterion {num:02d} failed: {desc}{detail}"


def _sample_pair(dim, stratum, rng):
    if stratum == "faithful":
        return random_mixed_hs(dim, dim, rng), random_mixed_hs(dim, dim, rng)
    if stratum == "rank_deficient":
        return (
            random_mixed_hs(dim, int(rng.integers(1, dim)), rng),
            random_mixed_hs(dim, int(rng.integers(1, dim + 1)), rng),
        )
    if stratum == "pure":
        return haar_random_pure(dim, rng), haar_random_pure(dim, rng)
    return random_orthogonal_pair(dim, rng)


def pure_pair_with_distance(t):
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = pure_from_vector([np.sqrt(1.0 - t * t), t])
    return rho, sigma


@pytest.fixture(scope="module")
def bound_sweep():
    """10^4 random pairs across dims {2,3,4,6} with S_a, raw S, and T."""
    rng = np.random.default_rng(SEED)
    a_grid = (0.1, 0.5, 0.9)
    records = []
    for dim in (2, 3, 4, 6):
        for trial in range(2500):
            rho, sigma = _sample_pair(dim, STRATA[trial % 4], rng)
            t = trace_norm_distance(rho, sigma)
            entry = {"t": t, "sa": {}, "raw": {}}
            for a in a_grid:
                entry["sa"][a] = telescopic_relative_entropy(rho, sigma, a)
                entry["raw"][a] = relative_entropy(rho, telescope_mix(rho, sigma, a))
            records.append(entry)
    return a_grid, records


def test_criterion_01_closed_form_limits():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for dim in (2, 3, 4, 6):
        for trial in range(500):
            rho, sigma = _sample_pair(dim, STRATA[trial % 4], rng)
            values = telescopic_relative_entropy(rho, sigma, LIMIT_A).tolist()
            margins = check_limit_closed_forms(
                values, tre_limit_zero(rho, sigma), tre_limit_one(rho, sigma)
            )
            worst = max(worst, -margins["limit_zero"], -margins["limit_one"])
    _report(
        1,
        "endpoint closed forms match Richardson-extrapolated S_a within 1e-3",
        worst <= 1e-3,
        f" (worst deviation {worst:.3e})",
    )


def test_criterion_02_pure_state_formula():
    worst_pair = 0.0
    for t in np.linspace(0.0, 1.0, 50):
        rho, sigma = pure_pair_with_distance(t)
        for a in np.linspace(0.02, 0.98, 50):
            gap = abs(
                tre_pure_closed_form(t, a)
                - telescopic_relative_entropy(rho, sigma, float(a))
            )
            worst_pair = max(worst_pair, gap)

    # near-endpoint comparison to t^2, anchored at a in {1e-4, 1-1e-4}: the
    # a -> 1 value is already within tolerance pointwise, the a -> 0 end
    # converges only like 1/log a and needs the Richardson tightening
    worst_limits = 0.0
    nodes = (1e-4, 1e-6)
    hs = [-1.0 / math.log(a) for a in nodes]
    for t in np.linspace(0.0, 1.0, 50):
        ex0 = richardson(hs, [tre_pure_closed_form(t, a) for a in nodes])
        lim1 = tre_pure_closed_form(t, 1.0 - 1e-4)
        worst_limits = max(worst_limits, abs(ex0 - t * t), abs(lim1 - t * t))

    ok = worst_pair <= 1e-9 and worst_limits <= 1e-3
    _report(
        2,
        "pure-state closed form matches the 2x2 computation and its t^2 limits",
        ok,
        f" (grid gap {worst_pair:.3e}, limit gap {worst_limits:.3e})",
    )


def test_criterion_03_upper_bound_and_sharpness(bound_sweep):
    a_grid, records = bound_sweep
    worst = max(e["sa"][a] - e["t"] for e in records for a in a_grid)
    family_gap = 0.0
    for t in np.arange(0.1, 0.95, 0.1):
        rho = np.diag([t, 0.0, 1.0 - t])
        sigma = np.diag([0.0, t, 1.0 - t])
        for a in (0.1, 0.5, 0.9):
            family_gap = max(
                family_gap, abs(telescopic_relative_entropy(rho, sigma, a) - t)
            )
    ok = worst <= 1e-9 and family_gap <= 1e-9
    _report(
        3,
        "S_a <= T on 10^4 pairs and the diagonal family attains equality",
        ok,
        f" (worst excess {worst:.3e}, equality gap {family_gap:.3e})",
    )


def test_criterion_04_telescopic_pinsker(bound_sweep):
    a_grid, records = bound_sweep
    worst = min(
        e["sa"][a] - 2.0 * (1 - a) ** 2 * e["t"] ** 2 / (-math.log(a))
        for e in records
        for a in a_grid
    )
    _report(
        4,
        "S_a >= 2(1-a)^2 T^2 / (-log a) across the sweep",
        worst >= -1e-9,
        f" (worst margin {worst:.3e})",
    )


def test_criterion_05_raw_upper_bound(bound_sweep):
    a_grid, records = bound_sweep
    worst = max(
        e["raw"][a] - (-math.log(a)) * e["t"]
        for e in records
        for a in a_grid
        if math.isfinite(e["raw"][a])
    )
    _report(
        5,
        "S(rho||tau) <= -log(a) T whenever finite, same sweep",
        worst <= 1e-9,
        f" (worst excess {worst:.3e})",
    )


def test_criterion_06_holevo():
    rng = np.random.default_rng(SEED + 6)
    worst_bound = -math.inf
    worst_paths = 0.0
    for trial in range(1000):
        dim = int(rng.integers(2, 7))
        rho, sigma = _sample_pair(dim, STRATA[trial % 4], rng)
        p = float(rng.uniform())
        chi = holevo_two(p, rho, sigma)
        t = trace_norm_distance(rho, sigma)
        worst_bound = max(worst_bound, chi - binary_entropy(p) * t)
        worst_paths = max(
            worst_paths, abs(chi - holevo_two_via_relative(p, rho, sigma))
        )
    ok = worst_bound <= 1e-9 and worst_paths <= 1e-9
    _report(
        6,
        "chi <= h(p) T and both chi paths agree on 10^3 ensembles",
        ok,
        f" (worst excess {worst_bound:.3e}, path gap {worst_paths:.3e})",
    )


def test_criterion_07_maximality():
    rng = np.random.default_rng(SEED + 7)
    worst_orth = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        rho, sigma = random_orthogonal_pair(dim, rng)
        a = float(rng.uniform(0.1, 0.9))
        worst_orth = max(
            worst_orth, abs(telescopic_relative_entropy(rho, sigma, a) - 1.0)
        )
    worst_overlap = 0.0
    found = 0
    while found < 200:
        dim = int(rng.integers(2, 5))
        rho = random_mixed_hs(dim, dim, rng)
        sigma = random_mixed_hs(dim, dim, rng)
        if float(np.real(np.trace(rho @ sigma))) < 0.1:
            continue
        found += 1
        a = float(rng.uniform(0.1, 0.9))
        worst_overlap = max(worst_overlap, telescopic_relative_entropy(rho, sigma, a))
    ok = worst_orth <= 1e-9 and worst_overlap <= 1.0 - 1e-6
    _report(
        7,
        "S_a = 1 exactly on orthogonal pairs and stays below 1 on overlapping ones",
        ok,
        f" (orthogonal gap {worst_orth:.3e}, overlapping max {worst_overlap:.6f})",
    )


def test_criterion_08_trre():
    rng = np.random.default_rng(SEED + 8)
    p_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    a_grid = (0.0, 0.25, 0.5, 0.75)
    worst_low = math.inf
    worst_high = -math.inf
    worst_bound = -math.inf
    worst_orth = 0.0
    for trial in range(1000):
        dim = int(rng.integers(2, 7))
        stratum = STRATA[trial % 4]
        rho, sigma = _sample_pair(dim, stratum, rng)
        t = trace_norm_distance(rho, sigma)
        orth = stratum == "orthogonal"
        for p in p_grid:
            for a in a_grid:
                overlap = renyi_overlap_telescoped(rho, sigma, p, a)
                q = (1.0 - overlap) / (1.0 - a**p)
                worst_low = min(worst_low, overlap - a**p)
                worst_high = max(worst_high, overlap - 1.0)
                worst_bound = max(worst_bound, q - t)
                if orth:
                    worst_orth = max(worst_orth, abs(overlap - a**p), abs(q - t))
    ok = (
        worst_low >= -1e-9
        and worst_high <= 1e-9
        and worst_bound <= 1e-9
        and worst_orth <= 1e-9
    )
    _report(
        8,
        "telescoped overlap in [a^p, 1], Q <= T, equality at orthogonality",
        ok,
        f" (low {worst_low:.3e}, high {worst_high:.3e}, bound {worst_bound:.3e}, "
        f"orth {worst_orth:.3e})",
    )


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(SEED + 9)
    dims = (2, 3, 4, 6)
    worst = {"log": 0.0, "power": 0.0, "T_A": 0.0, "T_Ap": 0.0, "S_a": 0.0}
    ratios_log, ratios_pow = [], []
    for k in range(100):
        dim = dims[k % 4]
        x = float(10.0 ** rng.uniform(-3, 3))
        worst["log"] = max(worst["log"], abs(quad_log(x) - math.log(x)))

        xp = float(10.0 ** rng.uniform(-2, 2))
        p = float(rng.uniform(0.1, 0.9))
        worst["power"] = max(
            worst["power"], abs(quad_power(xp, p) - xp**p) / xp**p
        )

        A = random_pd(rng, dim)
        D = random_hermitian(rng, dim)
        worst["T_A"] = max(
            worst["T_A"], np.abs(quad_frechet_log(A, D) - frechet_log_map(A, D)).max()
        )
        worst["T_Ap"] = max(
            worst["T_Ap"],
            np.abs(quad_frechet_power(A, D, p) - frechet_power_map(A, D, p)).max(),
        )

        rho = random_state_floor(rng, dim)
        sigma = random_state_floor(rng, dim)
        a = float(rng.uniform(0.1, 0.9))
        worst["S_a"] = max(
            worst["S_a"],
            abs(quad_tre(rho, sigma, a) - telescopic_relative_entropy(rho, sigma, a)),
        )

        Af = random_pd(rng, dim, floor=0.2)
        exact_log = frechet_log_map(Af, D)
        e1 = np.abs(finite_diff_frechet("log", Af, D, 1e-4) - exact_log).max()
        e2 = np.abs(finite_diff_frechet("log", Af, D, 5e-5) - exact_log).max()
        ratios_log.append(e1 / e2)
        exact_pow = frechet_power_map(Af, D, p)
        e1 = np.abs(finite_diff_frechet("power", Af, D, 1e-4, p=p) - exact_pow).max()
        e2 = np.abs(finite_diff_frechet("power", Af, D, 5e-5, p=p) - exact_pow).max()
        ratios_pow.append(e1 / e2)

    med_log = float(np.median(ratios_log))
    med_pow = float(np.median(ratios_pow))
    ok = all(v <= 1e-5 for v in worst.values()) and abs(med_log - 4) <= 0.5 and abs(
        med_pow - 4
    ) <= 0.5
    _report(
        9,
        "quadrature oracles agree within 1e-5 and finite differences are order 2",
        ok,
        f" (worst {max(worst.values()):.3e}, fd ratios {med_log:.2f}/{med_pow:.2f})",
    )


def test_criterion_10_frechet_identities():
    rng = np.random.default_rng(SEED + 10)
    worst_log = worst_pow = worst_adj = 0.0
    for k in range(100):
        dim = (2, 3, 4, 6)[k % 4]
        A = random_pd(rng, dim)
        p = float(rng.uniform(0.1, 0.9))
        worst_log = max(
            worst_log, np.abs(frechet_log_map(A, A) - np.eye(dim)).max()
        )
        worst_pow = max(
            worst_pow,
            np.abs(
                frechet_power_map(A, state_power(A, 1.0 - p), p) - p * np.eye(dim)
            ).max(),
        )
        B = random_hermitian(rng, dim)
        D = random_hermitian(rng, dim)
        worst_adj = max(
            worst_adj,
            abs(
                np.trace(B @ frechet_log_map(A, D))
                - np.trace(D @ frechet_log_map(A, B))
            ),
        )
    ok = worst_log <= 1e-10 and worst_pow <= 1e-10 and worst_adj <= 1e-10
    _report(
        10,
        "derivative-map identities and self-adjointness hold to 1e-10",
        ok,
        f" (T_A(A) {worst_log:.2e}, powers {worst_pow:.2e}, adjoint {worst_adj:.2e})",
    )


def test_criterion_11_figure_endpoints():
    _, _, rows1a = figure_rows(FigureSpec("fig1a", points=101))
    gap = 0.0
    for v in rows1a[0][1:]:
        gap = max(gap, abs(v - 1.0))
    for v in rows1a[-1][1:]:
        gap = max(gap, abs(v))

    # fig1b's rho = diag(2/3, 1/3) is not orthogonal to |1><1| nor equal to
    # |0><0|, so its x-endpoints follow the commuting closed form instead
    _, _, rows1b = figure_rows(FigureSpec("fig1b", points=101))
    lam = np.array([2 / 3, 1 / 3])
    for row in (rows1b[0], rows1b[-1]):
        sig = np.array([row[0], 1 - row[0]])
        for a, val in zip(FIG1_A_VALUES, row[1:]):
            tau = a * lam + (1 - a) * sig
            expected = float(np.sum(lam * (np.log(lam) - np.log(tau))) / -np.log(a))
            gap = max(gap, abs(val - expected))

    _, _, rows2a = figure_rows(FigureSpec("fig2a", points=101))
    gap = max(gap, abs(rows2a[0][1] - 0.5), abs(rows2a[-1][1]))
    _, _, rows2b = figure_rows(FigureSpec("fig2b", points=101))
    gap = max(gap, abs(rows2b[0][1]), abs(rows2b[-1][1]))

    _report(
        11,
        "figure endpoint rows match the closed forms of their constructions",
        gap <= 1e-9,
        f" (worst endpoint gap {gap:.3e})",
    )


def test_criterion_12_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        rc = main(
            [
                "verify",
                "--dims",
                "2,3",
                "--trials",
                "60",
                "--seed",
                str(SEED),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    _report(
        12,
        "fixed-seed verification reports are byte-identical and pass",
        identical and report["passed"],
        f" ({len(out1.read_bytes())} bytes)",
    )
