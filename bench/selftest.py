"""Tests of the benchmark itself.

    python3 -m pytest bench/selftest.py -q

The file name keeps these out of the package's own test run; they start
benchmark processes and take about a minute.

When this benchmark was written, one fuzz trial made 87 calls into
eigh/eigvalsh: 86 ``eigh`` through ``spectral_decompose`` and one
``eigvalsh`` in ``trace_norm_distance`` (``linalg.eigh_calls_per_item`` on
``fuzz_small_d``).  The counts are compared between runs, not with that
value, so that a change which removes eigendecompositions keeps these
tests green.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bootstrap

sys.path[:0] = [str(bootstrap.SRC), str(bootstrap.BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from telent import tre  # noqa: E402

EXACT = ("_calls_per_item", "linalg.eigh_mats_per_item", "linalg.eigh_distinct_ratio", "scheme_builds_per_item")


def _bench(*args: str, cwd=bootstrap.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_end_to_end_result_line():
    result = _result(_bench("--workload", "figure_qubit", "--seed", "3", "--seconds", "0.5", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name):
    args = ("--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    assert list(first["metrics"]) == [metric for metric, _ in tracing.LAYER_METRICS]
    exact = [metric for metric in first["metrics"] if metric.endswith(EXACT)]
    assert len(exact) == 9
    for metric in exact:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def _failing_ops(name: str, tmp_path) -> int:
    workload = workloads.create(name, tmp_path)
    failing = 0
    for index in range(4 if name in ("pairs_d64", "figure_qubit") else 1):
        inputs = workload.inputs(11, index)
        failing += bool(workload.problems(inputs, workload.run(inputs)))
    return failing


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_gate_catches_a_wrong_sa(name, tmp_path):
    assert _failing_ops(name, tmp_path) == 0
    right = tre.telescopic_relative_entropy

    def wrong(rho, sigma, a, *args, **kwargs):
        return right(rho, sigma, a, *args, **kwargs) + 1e-3

    with tracing.replaced_everywhere({right: wrong}):
        assert _failing_ops(name, tmp_path) > 0
    assert tre.telescopic_relative_entropy is right


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "figure_qubit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
