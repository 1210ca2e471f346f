#!/usr/bin/env python
"""Write the CLI outputs that a change meant to keep every value must keep.

    python3 scripts/golden.py OUT_DIR

Runs the ``telent`` command line of this checkout (its ``src``) in process
and writes, per run, its stdout to ``NAME.out``, its stderr to
``NAME.err`` and its exit code to ``exit_codes.txt``:

* ``telent verify`` for a set of sizes (d = 2 to 64), seeds and slacks,
  among them a forced failure (negative slack); five knife-edge seeds,
  where roundoff gives a low-rank state an eigenvalue just above
  ``dim * 2^-52 * lambda_max``, which failed ``limit_zero`` or
  ``limit_one`` until the rank cut became ``max(dim, 16) * 2^-52 *
  lambda_max`` (1423786839, 2451294897, and 2098274950, 2721176236 and
  254804234, which are ops 1072, 1096 and 1355 of ``fuzz_small_d`` with
  benchmark seeds 1744, 1749 and 1750); and the near-singular seeds
  2213080472 and 3438314566 (sigma) and 451392458 (rho), which fail
  ``limit_zero`` or ``limit_one`` because the extrapolation nodes are not
  far below the smallest eigenvalue of the state;
* ``telent figure FIG --points N`` for every figure at N = 1001, 2 and 3:
  at 2 the fig2a/fig2b grid has endpoints only, and fig1a has joint
  supports of ranks 1 and 2 in one call;
* ``telent compute`` for seeded pairs at d = 2, 3, 4, 6, one per sampling
  stratum (the orthogonal pair has an infinite relative entropy), at
  a in {0, 1e-11, 0.3, 0.5, 1 - 1e-9, 1}, each with and without
  ``--p 0.4 --format csv --bits``, and one pair per stratum at d = 16
  and 64 with ``--a 0.3 --p 0.4``.  The state files go to
  ``OUT_DIR/states``.

The pairs are drawn here with numpy alone, so they do not depend on the
package.  To compare two checkouts A and B::

    python3 A/scripts/golden.py /tmp/a
    python3 B/scripts/golden.py /tmp/b
    diff -r /tmp/a /tmp/b
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from telent.cli import FIGURE_IDS, main as cli_main  # noqa: E402

VERIFY_RUNS = {
    "verify_defaults": [],
    "verify_trials200_seed7": ["--trials", "200", "--seed", "7"],
    "verify_d234_trials1000_seed2026": ["--dims", "2,3,4", "--trials", "1000", "--seed", "2026"],
    "verify_d6_8_12_trials60_seed3": ["--dims", "6,8,12", "--trials", "60", "--seed", "3"],
    # numpy's pairwise summation changes regime at 8 elements
    "verify_d16_64_trials4_seed5": ["--dims", "16,64", "--trials", "4", "--seed", "5"],
    "verify_trials100_seed3_slack-1": ["--trials", "100", "--seed", "3", "--slack", "-1"],
    "verify_trials16_seed1423786839": ["--trials", "16", "--seed", "1423786839"],
    "verify_trials16_seed2451294897": ["--trials", "16", "--seed", "2451294897"],
    "verify_trials16_seed2098274950": ["--trials", "16", "--seed", "2098274950"],
    "verify_trials16_seed2721176236": ["--trials", "16", "--seed", "2721176236"],
    "verify_trials16_seed254804234": ["--trials", "16", "--seed", "254804234"],
    "verify_trials16_seed2213080472": ["--trials", "16", "--seed", "2213080472"],
    "verify_trials16_seed3438314566": ["--trials", "16", "--seed", "3438314566"],
    "verify_trials16_seed451392458": ["--trials", "16", "--seed", "451392458"],
}

FIGURE_SMALL_POINTS = (2, 3)

COMPUTE_DIMS = (2, 3, 4, 6)
COMPUTE_A = (0.0, 1e-11, 0.3, 0.5, 1.0 - 1e-9, 1.0)
COMPUTE_EXTRA = ["--p", "0.4", "--format", "csv", "--bits"]
# one run per pair at the dims where a pair's spectra cost most
COMPUTE_LARGE_DIMS = (16, 64)
COMPUTE_LARGE_ARGS = ["--a", "0.3", "--p", "0.4"]
STRATA = ("faithful", "rank_deficient", "pure", "orthogonal")


def _state(G: np.ndarray) -> np.ndarray:
    """G G* normalised to unit trace and made exactly Hermitian."""
    rho = G @ G.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2


def _ginibre(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))


def sample_pair(dim: int, stratum: str, rng: np.random.Generator):
    """rho and sigma of one stratum: full rank, rank below dim, pure, or
    supported on orthogonal halves of a random basis."""
    if stratum == "faithful":
        return _state(_ginibre(dim, dim, rng)), _state(_ginibre(dim, dim, rng))
    if stratum == "rank_deficient":
        return _state(_ginibre(dim, dim - 1, rng)), _state(_ginibre(dim, max(1, dim // 2), rng))
    if stratum == "pure":
        return _state(_ginibre(dim, 1, rng)), _state(_ginibre(dim, 1, rng))
    Q, _ = np.linalg.qr(_ginibre(dim, dim, rng))
    half = dim // 2
    G = Q * rng.uniform(0.5, 1.5, dim)
    return _state(G[:, :half]), _state(G[:, half:])


def _write_state(path: Path, rho: np.ndarray) -> None:
    matrix = [[[z.real, z.imag] for z in row] for row in rho.tolist()]
    path.write_text(json.dumps({"matrix": matrix}) + "\n")


def run(name: str, argv: list[str], codes: list[str]) -> None:
    """One CLI call, its output written to the current directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    Path(f"{name}.out").write_text(stdout.getvalue())
    Path(f"{name}.err").write_text(stderr.getvalue())
    codes.append(f"{name} {code}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/golden.py OUT_DIR", file=sys.stderr)
        return 2
    states = Path(argv[0]) / "states"
    states.mkdir(parents=True, exist_ok=True)
    # compute is given state paths relative to OUT_DIR, so no output names it
    os.chdir(argv[0])
    states = Path("states")
    # the verify defaults must be the built-in ones
    os.environ.pop("TRE_SEED", None)
    codes: list[str] = []

    for name, args in VERIFY_RUNS.items():
        run(name, ["verify", *args], codes)
    for fig in FIGURE_IDS:
        run(f"figure_{fig}", ["figure", fig, "--points", "1001"], codes)
        for points in FIGURE_SMALL_POINTS:
            run(f"figure_{fig}_points{points}", ["figure", fig, "--points", str(points)], codes)

    rng = np.random.default_rng(20261018)

    def write_pair(pair: str, dim: int, stratum: str) -> list[str]:
        paths = [states / f"{pair}_{role}.json" for role in ("rho", "sigma")]
        for path, rho in zip(paths, sample_pair(dim, stratum, rng)):
            _write_state(path, rho)
        return [str(path) for path in paths]

    for dim in COMPUTE_DIMS:
        for stratum in STRATA:
            pair = f"d{dim}_{stratum}"
            paths = write_pair(pair, dim, stratum)
            for a in COMPUTE_A:
                args = ["compute", *paths, "--a", repr(a)]
                run(f"compute_{pair}_a{a!r}", args, codes)
                run(f"compute_{pair}_a{a!r}_p0.4_csv_bits", args + COMPUTE_EXTRA, codes)
    # drawn after the pairs above, so those stay as they were
    for dim in COMPUTE_LARGE_DIMS:
        for stratum in STRATA:
            pair = f"d{dim}_{stratum}"
            args = ["compute", *write_pair(pair, dim, stratum), *COMPUTE_LARGE_ARGS]
            run(f"compute_{pair}_a0.3_p0.4", args, codes)

    Path("exit_codes.txt").write_text("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
