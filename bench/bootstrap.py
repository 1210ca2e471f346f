"""Process set-up shared by the benchmark's entry points.

Import this module before numpy: OpenBLAS reads its thread count when the
library loads, and with two OpenBLAS threads ``S_a`` at d = 64 runs about
ten times slower than with one, so every benchmark process pins BLAS to a
single thread.  The package under test is always the ``src/`` tree of the
checkout that holds this directory, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def prepare_process() -> None:
    """Pin BLAS threads and put the checkout's sources first on the path.

    Exits with an error, before any result is printed, when numpy is
    already loaded or the checkout holds no ``src/telent`` package.
    """
    if "numpy" in sys.modules:
        sys.exit("error: numpy was imported before the BLAS thread pins")
    os.environ.update(BLAS_PINS)
    if not (SRC / "telent" / "__init__.py").is_file():
        sys.exit(f"error: no telent package under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))

