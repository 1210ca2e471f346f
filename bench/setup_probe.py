"""Set-up cost of one workload, measured in a fresh process.

    python3 bench/setup_probe.py --workload NAME --seed N

Times importing telent, generating the first op's inputs and running that
op cold (quadrature schemes, einsum paths and LAPACK workspaces are built
on first use), and prints the times as one JSON line, with the
machine-speed scale factor of ``calibration.py`` measured right after.
``run.py`` starts several of these and reports the median scaled time as
``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import time

import bootstrap

# Reference-kernel runs after set-up that give the probe's speed scale.
KERNEL_RUNS = 3


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import telent  # noqa: F401  (importing the package is part of set-up)
    import workloads

    t1 = time.perf_counter()
    tmp = bootstrap.OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.create(args.workload, tmp)
        inputs = workload.inputs(args.seed, 0)
        t2 = time.perf_counter()
        workload.run(inputs)
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    import calibration

    kernel = calibration.ReferenceKernel()
    scale = calibration.REFERENCE_S / statistics.median(kernel.seconds() for _ in range(KERNEL_RUNS))
    times = {"setup_s": t3 - t0, "import_s": t1 - t0, "inputs_s": t2 - t1, "first_op_s": t3 - t2}
    print(json.dumps(dict(times, scale=scale)))


if __name__ == "__main__":
    bootstrap.prepare_process()
    main()
