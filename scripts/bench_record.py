#!/usr/bin/env python
"""Record a parent/change benchmark comparison into a BENCH_<n>.json file.

    python3 scripts/bench_record.py --parent DIR --change DIR --workload W \
        --seeds 401 402 403 --out BENCH_8.json

Each seed is one pair of runs of ``python3 bench/run.py --workload W
--seed N --seconds S``, one in each checkout, with S the ``run_seconds``
of the change's ``BENCHMARK.json``; the tree that runs first alternates
from pair to pair.  The last line of each run's output is its
JSON result and its ``# env`` line is the environment.  Per end-to-end
metric and side the file gets the median and the quartiles of the runs,
the number of pairs the change won, and a verdict, the first of these
that holds:

* ``gain``: there are at least ten pairs, the change won at least 9 of
  10 of them and its median is better than the parent's by more than
  the parent's quartile spread;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the
  parent's median);
* ``unresolved``: the quartile spread of either side, as a fraction of
  its median, is wider than the bound;
* ``unchanged``.

With fewer than ten pairs a clear improvement is ``unchanged`` (or
``unresolved``), never ``gain``.  Every run's ``correct``,
``failed`` and metric values are kept too.  ``--out`` is updated in
place: other workloads already in it are kept, so several invocations
build one file.  Fewer than two seeds exit with status 2 before any run,
since quartiles need two runs per side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# Fewest pairs from which a gain is claimed.
MIN_GAIN_PAIRS = 10


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its result, plus its environment."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: {' '.join(cmd)} in {tree} printed no result (exit code {proc.returncode})\n{proc.stderr}")
    result["env"] = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(entry: dict, pairs: int) -> str:
    """gain, regressed, unresolved or unchanged, as the module docstring says."""
    sign = 1.0 if entry["better"] == "higher" else -1.0
    parent, change = entry["parent"], entry["change"]
    improvement = sign * (change["median"] - parent["median"])
    won = pairs >= MIN_GAIN_PAIRS and entry["change_wins"] >= 0.9 * pairs
    if won and improvement > parent["q3"] - parent["q1"]:
        return "gain"
    if -improvement > entry["bound"] * abs(parent["median"]):
        return "regressed"
    if any(side["q3"] - side["q1"] > entry["bound"] * abs(side["median"]) for side in (parent, change)):
        return "unresolved"
    return "unchanged"


def summarise(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Median, quartiles, change wins and verdict per metric, from paired runs."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    out = {}
    for name, spec in metrics.items():
        better = spec["better"]
        values = {side: [r["metrics"][name]["value"] for r in by_side[side]] for side in SIDES}
        wins = sum(
            (c > p) if better == "higher" else (c < p)
            for p, c in zip(values["parent"], values["change"])
        )
        entry = {"unit": by_side["change"][0]["metrics"][name]["unit"], "better": better, "bound": spec["bound"]}
        entry.update({side: spread(values[side]) for side in SIDES})
        entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_wins"] = wins
        entry["verdict"] = verdict(entry, len(values["parent"]))
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds: quartiles take two runs per side")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_bench(trees[side], args.workload, seed, seconds)
            runs.append(dict(result, side=side, seed=seed))
            print(
                f"# {args.workload} seed={seed} {side}: correct={result['correct']} "
                f"failed={result['failed']} items_per_s={result['metrics']['items_per_s']['value']:.4g}",
                file=sys.stderr,
            )

    envs = []
    for r in runs:
        env = r.pop("env")
        if env not in envs:
            envs.append(env)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed N --seconds {seconds:g}",
        "seeds": args.seeds,
        "pairs": len(args.seeds),
        "first_side": "parent on even pair indices, change on odd ones",
        "env": envs,
        "metrics": summarise(runs, metrics),
        "runs": [
            {
                "seed": r["seed"],
                "side": r["side"],
                "correct": r["correct"],
                "attempted": r["attempted"],
                "failed": r["failed"],
                "metrics": {name: m["value"] for name, m in r["metrics"].items()},
            }
            for r in runs
        ],
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
