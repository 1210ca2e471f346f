"""The benchmark's workloads: inputs, the timed operation, and its gate.

Each workload is a closed loop: one client in one process sends the next
operation only after the previous one has returned.  An operation's inputs
depend only on the benchmark seed and the operation's index.
``pairs_d64`` and ``oracle_xval`` draw their matrices with the numpy code in
this file, not with ``telent.states``, so a change to the package's
samplers cannot change what they measure; ``fuzz_small_d`` hands the
package nothing but seeds.

The package is called through its module attributes (``tre.f(...)``, not a
name imported from it), so the span wrappers of ``tracing`` see every call.
A gate compares an output with references computed outside the timed
region and returns the problems it found; an empty list means the output
is right.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from telent import cli, matfun, oracle, renyi, tre, verify

# Slack of the inequality and closed-form gates; the seed code meets them
# to about 2e-14.
SLACK = 1e-9
# Problems listed per op; the rest of a failing op's problems are dropped.
MAX_PROBLEMS = 5


def _ginibre_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Hilbert-Schmidt random state G G* / tr(G G*) of the given rank."""
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    M = G @ G.conj().T
    M = (M + M.conj().T) / 2
    return M / M.trace().real


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _embed(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    out = V @ M @ V.conj().T
    return (out + out.conj().T) / 2


def _max_abs_diff(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


class FuzzSmallD:
    """One op is one ``run_fuzz`` call over d = 2, 3, 4 plus its JSON report.

    This is ``telent verify`` at a smaller trial count: tiny matrices, so
    Python overhead and the number of ``eigh`` calls set the cost.  Sixteen
    trials per dimension (four per stratum) give a per-dimension batched
    engine real batches.  An item is one trial.
    """

    name = "fuzz_small_d"
    dims = (2, 3, 4)
    trials = 16
    items_per_op = len(dims) * trials
    trace_ops = 8

    def __init__(self, tmp_dir: Path) -> None:
        self._replayed = False

    def inputs(self, seed: int, index: int) -> verify.FuzzConfig:
        op_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        return verify.FuzzConfig(dims=self.dims, trials=self.trials, seed=op_seed)

    def run(self, config):
        report = verify.run_fuzz(config)
        return report, report.to_json()

    def problems(self, config, output) -> list[str]:
        report, text = output
        found = []
        if not report.passed:
            failing = sorted(n for n, st in report.checks.items() if st.failures)
            found.append(f"report failed checks {failing}")
        doc = json.loads(text)
        if doc.get("passed") is not True:
            found.append("serialized report does not pass")
        n = len(config.dims) * config.trials
        n_a, n_p = len(config.a_grid), len(config.p_grid)
        expected = {
            "range": n_a * n,
            "upper_T": n_a * n,
            "lower_pinsker": n_a * n,
            "holevo": n,
            "holevo_paths": n,
            "trre_bound": n_p * n_a * n,
            "trre_overlap": n_p * n_a * n,
            "joint_convexity": n,
            "limit_zero": n,
            "limit_one": n,
            "limit_cauchy": n,
        }
        counts = {name: st["trials"] for name, st in doc["checks"].items()}
        for name, want in expected.items():
            if counts.get(name) != want:
                found.append(f"check {name} ran {counts.get(name)} trials, expected {want}")
        # maximality is probed only on orthogonal or well-overlapping pairs
        if not 0 < counts.get("maximality", 0) <= n_a * n:
            found.append(f"check maximality ran {counts.get('maximality')} trials")
        if not self._replayed:
            self._replayed = True
            if verify.run_fuzz(config).to_json() != text:
                found.append("re-running the op with the same seed changed the report")
        return found


@dataclass
class Pair:
    stratum: str
    rho: np.ndarray
    sigma: np.ndarray
    t_ref: float | None  # trace distance known independently of the package


class PairsD64:
    """One op is one d = 64 pair through the ``telent compute`` quantity set.

    S_a on the a grid, T, S0, S1 and Q_{p,a} on the p x a grid.  The strata
    rotate faithful / rank-deficient / pure / orthogonal.  LAPACK sets the
    cost, so fewer ``eigh`` calls pay off fully here while Python-overhead
    wins should show no change.  An item is one pair.
    """

    name = "pairs_d64"
    dim = 64
    strata = ("faithful", "rank_deficient", "pure", "orthogonal")
    a_grid = (0.1, 0.25, 0.5, 0.75, 0.9)
    p_grid = (0.25, 0.5, 0.75)
    items_per_op = 1
    trace_ops = 48

    def __init__(self, tmp_dir: Path) -> None:
        pass

    def inputs(self, seed: int, index: int) -> Pair:
        rng = np.random.default_rng([seed, index])
        d = self.dim
        stratum = self.strata[index % len(self.strata)]
        if stratum == "faithful":
            return Pair(stratum, _ginibre_state(rng, d, d), _ginibre_state(rng, d, d), None)
        if stratum == "rank_deficient":
            r1, r2 = int(rng.integers(1, d)), int(rng.integers(1, d + 1))
            return Pair(stratum, _ginibre_state(rng, d, r1), _ginibre_state(rng, d, r2), None)
        if stratum == "pure":
            u, v = _unit_vector(rng, d), _unit_vector(rng, d)
            t_ref = math.sqrt(max(1.0 - abs(np.vdot(u, v)) ** 2, 0.0))
            return Pair(stratum, np.outer(u, u.conj()), np.outer(v, v.conj()), t_ref)
        U = _haar_unitary(rng, d)
        k = int(rng.integers(1, d))
        ra, rb = int(rng.integers(1, k + 1)), int(rng.integers(1, d - k + 1))
        rho = _embed(U[:, :k], _ginibre_state(rng, k, ra))
        sigma = _embed(U[:, k:], _ginibre_state(rng, d - k, rb))
        return Pair(stratum, rho, sigma, 1.0)

    def run(self, pair: Pair) -> dict:
        rho, sigma = pair.rho, pair.sigma
        return {
            "S_a": [tre.telescopic_relative_entropy(rho, sigma, a) for a in self.a_grid],
            "T": matfun.trace_norm_distance(rho, sigma),
            "S0": tre.tre_limit_zero(rho, sigma),
            "S1": tre.tre_limit_one(rho, sigma),
            "Q": [[renyi.trre(rho, sigma, p, a) for a in self.a_grid] for p in self.p_grid],
        }

    def problems(self, pair: Pair, out: dict) -> list[str]:
        found = []
        t = out["T"]
        q_all = [q for row in out["Q"] for q in row]
        for a, sa in zip(self.a_grid, out["S_a"]):
            if not -SLACK <= sa <= t + SLACK:
                found.append(f"S_a={sa!r} at a={a} outside [0, T={t!r}]")
        if any(q > t + SLACK for q in q_all):
            found.append(f"Q_p,a above T={t!r}: max {max(q_all)!r}")
        for key in ("S0", "S1"):
            if not -SLACK <= out[key] <= 1.0 + SLACK:
                found.append(f"{key}={out[key]!r} outside [0, 1]")
        if pair.t_ref is not None and abs(t - pair.t_ref) > SLACK:
            found.append(f"T={t!r}, reference {pair.t_ref!r}")
        if pair.stratum == "pure":
            for a, sa in zip(self.a_grid, out["S_a"]):
                ref = tre.tre_pure_closed_form(pair.t_ref, a)
                if abs(sa - ref) > SLACK:
                    found.append(f"pure S_a={sa!r} at a={a}, closed form {ref!r}")
        if pair.stratum == "orthogonal":
            worst = max(abs(v - 1.0) for v in out["S_a"] + q_all)
            if worst > SLACK:
                found.append(f"orthogonal pair: S_a or Q off 1 by {worst:.3e}")
        return found


@dataclass
class FigureJob:
    figure: str
    points: int
    out: Path


class FigureQubit:
    """One op is one in-process ``telent figure`` call, cycling the figures.

    The scalar public API at d = 2, including the a = 0 and a = 1 closed
    forms, behind the CLI; the only workload that exercises ``cli``.  The
    a-sweep figures get six times the points of the x-sweep figures (which
    tabulate six a-values per point), so every op tabulates 606 values.  The
    figures are fixed; the seed picks where the cycle starts.  An item is
    one tabulated S_a value.
    """

    name = "figure_qubit"
    figures = ("fig1a", "fig1b", "fig2a", "fig2b")
    fig1_a_values = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9)
    fig1_points = 101
    items_per_op = 6 * fig1_points
    trace_ops = 16
    # Diagonals of rho for the x-sweeps (sigma = diag(x, 1-x)), and of the
    # fixed pair for the a-sweeps.
    sweep_x_rho = {"fig1a": (1.0, 0.0), "fig1b": (2.0 / 3.0, 1.0 / 3.0)}
    sweep_a_pair = {"fig2a": ((0.5, 0.5), (0.0, 1.0)), "fig2b": ((0.5, 0.5), (0.2, 0.8))}

    def __init__(self, tmp_dir: Path) -> None:
        self._csv = tmp_dir / "figure.csv"

    def inputs(self, seed: int, index: int) -> FigureJob:
        figure = self.figures[(seed + index) % len(self.figures)]
        points = self.fig1_points if figure in self.sweep_x_rho else self.items_per_op
        return FigureJob(figure, points, self._csv)

    def run(self, job: FigureJob) -> int:
        return cli.main(["figure", job.figure, "--points", str(job.points), "--out", str(job.out)])

    @staticmethod
    def reference(r, s, a) -> np.ndarray:
        """S_a of commuting states diag(r), diag(s): 0 log 0 = 0, closed forms at a = 0, 1.

        ``s`` has shape (..., 2); ``a`` broadcasts against ``s[..., 0]``.
        """
        r = np.asarray(r, dtype=float)
        s, a = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(a, dtype=float)[..., None])
        on = r > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(on, r * (np.log(np.where(on, r, 1.0)) - np.log(a * r + (1.0 - a) * s)), 0.0)
            interior = terms.sum(axis=-1) / -np.log(a[..., 0])
        at_zero = 1.0 - np.where(s > 0.0, r, 0.0).sum(axis=-1)
        at_one = 1.0 - np.where(on, s, 0.0).sum(axis=-1)
        a = a[..., 0]
        return np.where(a == 0.0, at_zero, np.where(a == 1.0, at_one, interior))

    def problems(self, job: FigureJob, status: int) -> list[str]:
        if status != 0:
            return [f"telent figure exited with {status}"]
        lines = job.out.read_text().splitlines()
        if len(lines) != job.points + 2 or not lines[0].startswith("#"):
            return [f"expected a comment line, a header and {job.points} rows"]
        grid = np.linspace(0.0, 1.0, job.points)
        if job.figure in self.sweep_x_rho:
            want = ["x"] + [f"Sa_a{a:g}" for a in self.fig1_a_values]
            sigmas = np.stack([grid, 1.0 - grid], axis=-1)[:, None, :]
            expected = self.reference(self.sweep_x_rho[job.figure], sigmas, np.array(self.fig1_a_values))
        else:
            want = ["a", "Sa"]
            rho, sigma = self.sweep_a_pair[job.figure]
            expected = self.reference(rho, sigma, grid)[:, None]
        if lines[1].split(",") != want:
            return [f"header {lines[1]!r}, expected {','.join(want)!r}"]
        table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        bad = ~(
            (np.abs(table[:, 0] - grid) <= 1e-12) & np.all(np.abs(table[:, 1:] - expected) <= SLACK, axis=1)
        )
        return [
            f"{job.figure} row {lines[2 + i]!r}, expected {float(grid[i])!r} and {expected[i].tolist()}"
            for i in np.flatnonzero(bad)[:MAX_PROBLEMS]
        ]


@dataclass
class Round:
    dim: int
    p: float
    A: np.ndarray
    D: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    a: float
    A_fd: np.ndarray


class OracleXval:
    """One op is a criterion-09 cross-check round at each of d = 2, 3, 4, 6.

    Each round draws a fresh Renyi order p and compares the quadrature
    derivative maps with the divided-difference maps, ``quad_tre`` with
    S_a, and central finite differences at two steps with the exact maps
    (the error must fall as the step squared).
    The oracles take nearly all the time and the spectral core very little,
    so spectral-core changes should not move this workload; oracle caching
    should (a fresh p defeats ``power_scheme``'s cache).  An item is one
    round.
    """

    name = "oracle_xval"
    dims = (2, 3, 4, 6)
    steps = (1e-4, 5e-5)  # coarse, then half the step
    tolerance = 1e-5  # the criterion-09 agreement bound
    # Below this error roundoff in scipy's matrix functions, not the step,
    # sets the finite-difference error, and the ratio test does not apply.
    fd_roundoff = 1e-9
    items_per_op = len(dims)
    trace_ops = 16

    def __init__(self, tmp_dir: Path) -> None:
        pass

    @staticmethod
    def _pd(rng, dim: int, floor: float) -> np.ndarray:
        return (_ginibre_state(rng, dim, dim) + floor * np.eye(dim)) / (1.0 + floor * dim)

    @staticmethod
    def _state_with_floor(rng, dim: int, floor: float = 1e-3) -> np.ndarray:
        while True:
            M = _ginibre_state(rng, dim, dim)
            if np.linalg.eigvalsh(M)[0] >= floor:
                return M

    def inputs(self, seed: int, index: int) -> list[Round]:
        rng = np.random.default_rng([seed, index])
        rounds = []
        for dim in self.dims:
            p = float(rng.uniform(0.1, 0.9))
            A = self._pd(rng, dim, 0.05)
            G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            D = (G + G.conj().T) / 2
            rho = self._state_with_floor(rng, dim)
            sigma = self._state_with_floor(rng, dim)
            a = float(rng.uniform(0.1, 0.9))
            rounds.append(Round(dim, p, A, D, rho, sigma, a, self._pd(rng, dim, 0.2)))
        return rounds

    def run(self, rounds: list[Round]) -> list[dict]:
        """Per round: (oracle value, spectral value) pairs, and per step the
        finite-difference estimates with the exact maps."""
        results = []
        for r in rounds:
            exact_log = matfun.frechet_log_map(r.A_fd, r.D)
            exact_pow = matfun.frechet_power_map(r.A_fd, r.D, r.p)
            results.append(
                {
                    "frechet_log": (oracle.quad_frechet_log(r.A, r.D), matfun.frechet_log_map(r.A, r.D)),
                    "frechet_power": (
                        oracle.quad_frechet_power(r.A, r.D, r.p),
                        matfun.frechet_power_map(r.A, r.D, r.p),
                    ),
                    "tre": (
                        oracle.quad_tre(r.rho, r.sigma, r.a),
                        tre.telescopic_relative_entropy(r.rho, r.sigma, r.a),
                    ),
                    "fd_log": [
                        (oracle.finite_diff_frechet("log", r.A_fd, r.D, h), exact_log) for h in self.steps
                    ],
                    "fd_power": [
                        (oracle.finite_diff_frechet("power", r.A_fd, r.D, h, p=r.p), exact_pow)
                        for h in self.steps
                    ],
                }
            )
        return results

    def problems(self, rounds: list[Round], results: list[dict]) -> list[str]:
        """Oracles agree within 1e-5; halving the step cuts the
        finite-difference error by 4 +- 0.5 (second order), as in criterion 09,
        unless the error is already at roundoff level."""
        found = []
        for r, res in zip(rounds, results):
            for label in ("frechet_log", "frechet_power", "tre"):
                err = _max_abs_diff(*res[label])
                if not err <= self.tolerance:
                    found.append(f"d={r.dim} p={r.p:.4f}: {label} differs by {err:.3e}")
            for label in ("fd_log", "fd_power"):
                coarse, fine = (_max_abs_diff(*pair) for pair in res[label])
                if fine > self.fd_roundoff and not abs(coarse / fine - 4.0) <= 0.5:
                    found.append(f"d={r.dim} p={r.p:.4f}: {label} errors {coarse:.3e}, {fine:.3e} not second order")
        return found


WORKLOADS = {cls.name: cls for cls in (FuzzSmallD, PairsD64, FigureQubit, OracleXval)}


def create(name: str, tmp_dir: Path):
    """Instantiate a workload; ``tmp_dir`` receives files an op writes."""
    return WORKLOADS[name](tmp_dir)
