"""Machine-speed reference for the benchmark's timings.

On a host shared with other tenants, their load changes the speed of the
CPU the benchmark runs on: by up to 2.5x on a 2-vCPU Xeon virtual machine,
in phases from a tenth of a second to a minute long.  Raw wall times of
the same op then differ by more than any change worth measuring.  A fixed
reference kernel, small Hermitian eigendecompositions plus a Python dict
loop (the mix of work telent does), is timed right before and right after
each op, and the op's time is scaled by ``REFERENCE_S`` over the slower of
the two kernel times.  Reported times therefore read as times on a machine
where the kernel takes ``REFERENCE_S``; on that Xeon host with no other
tenant busy it takes about 1 ms.  The kernel never calls telent, so no
change to the package can move it.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import eigh  # bound here, so span wrappers never see these calls

REFERENCE_S = 1e-3


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        G = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
        self._mats = list((G + G.conj().transpose(0, 2, 1)) / 2)

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        start = time.perf_counter()
        for m in self._mats:
            lam, U = eigh(m)
            (U * np.log(np.maximum(lam, 1e-3))) @ U.conj().T
        counts: dict[int, int] = {}
        for k in range(3000):
            counts[k % 97] = counts.get(k % 97, 0) + k
        return time.perf_counter() - start
