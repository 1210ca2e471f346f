#!/usr/bin/env python
"""Print the worst errors of S_a and Q_{p,a} against their 40-digit references.

    python3 scripts/reference_errors.py

Runs the package of this checkout (its ``src``) on the pairs of
``tests/test_mp_reference.py`` and prints, beside each test tolerance, the
worst absolute error of ``telescopic_relative_entropy`` per a and of
``trre`` per (p, a) against that module's mpmath references.  A change
that moves a computed value runs it on both trees to show that no worst
error grows.  Needs mpmath (the ``test`` extras); takes a few seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_mp_reference as ref  # noqa: E402

from telent.renyi import trre  # noqa: E402
from telent.tre import telescopic_relative_entropy  # noqa: E402


def sa_errors() -> dict[float, float]:
    """The worst error of S_a per a over the pairs of ``SA_DIMS``."""
    worst = dict.fromkeys(ref.SA_TOLERANCE, 0.0)
    for dim in ref.SA_DIMS:
        for stratum in ref.STRATA:
            rho, sigma = ref.reference_pair(dim, stratum)
            for a, value in ref.reference_sa(rho, sigma, worst).items():
                worst[a] = max(worst[a], abs(telescopic_relative_entropy(rho, sigma, a) - value))
    return worst


def q_errors() -> dict[tuple[float, float], float]:
    """The worst error of Q_{p,a} per (p, a) over the pairs of ``DIMS``."""
    worst = {(p, a): 0.0 for p in ref.P_GRID for a in ref.A_GRID}
    for dim in ref.DIMS:
        for stratum in ref.STRATA:
            rho, sigma = ref.reference_pair(dim, stratum)
            for (p, a), value in ref.reference_trre(rho, sigma, ref.P_GRID, ref.A_GRID).items():
                worst[p, a] = max(worst[p, a], abs(trre(rho, sigma, p, a) - value))
    return worst


def main() -> None:
    print(f"# S_a, d in {ref.SA_DIMS} x {len(ref.STRATA)} strata")
    print(f"{'a':>14} {'worst error':>12} {'tolerance':>10}")
    for a, error in sa_errors().items():
        print(f"{a:>14.10g} {error:>12.3g} {ref.SA_TOLERANCE[a]:>10.3g}")
    print(f"# Q_{{p,a}}, d in {ref.DIMS} x {len(ref.STRATA)} strata")
    print(f"{'p':>6} {'a':>6} {'worst error':>12} {'tolerance':>10}")
    for (p, a), error in q_errors().items():
        print(f"{p:>6.3g} {a:>6.3g} {error:>12.3g} {ref.TOLERANCE:>10.3g}")


if __name__ == "__main__":
    main()
