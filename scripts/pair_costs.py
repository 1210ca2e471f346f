#!/usr/bin/env python
"""Time the one-pair calls of the package, in microseconds per call.

    python3 scripts/pair_costs.py [--dims 2,4,16,64] [--rounds 3]

Runs the package of this checkout (its ``src``) with BLAS pinned to one
thread.  Per dimension, each round draws fresh pairs of full-rank states
with plain numpy and times, on each pair in turn:

* ``S_a cold``: the first S_a of the pair, at a = 0.3, which decomposes
  rho over (rho+sigma)/2 and the mixture at 0.3;
* ``Q first``: Q_{p,a} at p = 0.5, a = 0.3, which takes the overlap
  weights of that mixture and the overlap at p;
* ``Q next``: Q_{p,a} at p = 0.25, a = 0.3, the overlap at a new p;
* ``S_0``: the a -> 0 limit, which decomposes sigma;
* ``S_1``: the a -> 1 limit, from rho's kept spectrum;
* ``T``: the trace norm distance, one eigvalsh of rho - sigma.

Each figure is the mean over a round's pairs, and the best of the rounds
is printed, so other load on the machine inflates it least.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from telent import matfun, renyi, tre  # noqa: E402

CALLS = (
    ("S_a cold", lambda r, s: tre.telescopic_relative_entropy(r, s, 0.3)),
    ("Q first", lambda r, s: renyi.trre(r, s, 0.5, 0.3)),
    ("Q next", lambda r, s: renyi.trre(r, s, 0.25, 0.3)),
    ("S_0", tre.tre_limit_zero),
    ("S_1", tre.tre_limit_one),
    ("T", matfun.trace_norm_distance),
)


def _state(rng: np.random.Generator, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    M = G @ G.conj().T
    return M / np.trace(M).real


def costs(dim: int, pairs: int, rounds: int, seed: int = 0) -> dict[str, float]:
    """The best over ``rounds`` of the mean microseconds per call."""
    rng = np.random.default_rng([seed, dim])
    best = {name: float("inf") for name, _ in CALLS}
    for _ in range(rounds):
        total = dict.fromkeys(best, 0.0)
        for _ in range(pairs):
            rho, sigma = _state(rng, dim), _state(rng, dim)
            for name, call in CALLS:
                start = time.perf_counter()
                call(rho, sigma)
                total[name] += time.perf_counter() - start
        for name in best:
            best[name] = min(best[name], total[name] / pairs * 1e6)
    return best


def main() -> None:
    p = argparse.ArgumentParser(description="Microseconds per one-pair call")
    p.add_argument("--dims", default="2,4,16,64", help="comma-separated dimensions")
    p.add_argument("--rounds", type=int, default=3, help="rounds, of which the best is printed")
    args = p.parse_args()
    dims = [int(d) for d in args.dims.split(",")]

    print(f"# numpy {np.__version__}, BLAS threads pinned to 1, best of {args.rounds} rounds")
    print(f"{'d':>4}" + "".join(f"{name:>11}" for name, _ in CALLS) + "   (us per call)")
    for dim in dims:
        # about a second of calls per round at each dimension
        pairs = 400 if dim <= 4 else 100 if dim <= 16 else 30
        best = costs(dim, pairs, args.rounds)
        print(f"{dim:>4}" + "".join(f"{best[name]:>11.1f}" for name, _ in CALLS))


if __name__ == "__main__":
    main()
