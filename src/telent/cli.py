"""Command-line front end.

Subcommands:

* ``compute``  -- telescopic quantities for two states from JSON files
* ``figure``   -- CSV data series for the qubit survey figures
* ``verify``   -- run the randomized verification suite
* ``pure``     -- evaluate the pure-state closed form

State files are JSON documents containing exactly one of
``{"matrix": [[[re, im], ...], ...]}`` (row-major, optional ``"dim"``),
``{"diag": [...]}``, ``{"pure": [[re, im], ...]}``, or, for qubits,
``{"bloch": [x, y, z]}``.

Exit codes: 0 on success, 1 when the verification suite finds a failing
check, 2 on usage or parse errors.  The environment variable ``TRE_SEED``
supplies the default verification seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .matfun import _EPS_RANK, _RANK_CUT_MIN_DIM, trace_norm_distance
from .renyi import trre
from .states import EPS_ORTH, state_from_jsonable, state_to_jsonable, telescope_mix
from .tre import (
    EPS_SUPP,
    relative_entropy,
    telescopic_relative_entropy,
    tre_limit_one,
    tre_limit_zero,
    tre_pure_closed_form,
)
from .verify import FuzzConfig, run_fuzz

# Figures that ``telent figure`` tabulates.
FIGURE_IDS = ("fig1a", "fig1b", "fig2a", "fig2b")

# Interior a-values for the x-sweep figures, spanning near-endpoint to
# near-unity telescoping.
FIG1_A_VALUES = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9)

_DEFAULT_SEED = 2026
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class FigureSpec:
    """Which figure to tabulate and at what grid resolution."""

    figure_id: str
    points: int = 101

    def __post_init__(self) -> None:
        if self.figure_id not in FIGURE_IDS:
            raise ValueError(f"unknown figure id {self.figure_id!r}")
        if self.points < 2:
            raise ValueError("grid resolution must be at least 2")


def load_state(path: str) -> np.ndarray:
    """Read and validate a density matrix from a JSON state file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"state file {path} is not valid JSON: {exc}") from exc
    try:
        return state_from_jsonable(doc)
    except ValueError as exc:
        raise ValueError(f"state file {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def _compute_record(rho, sigma, a, p, bits):
    sa = telescopic_relative_entropy(rho, sigma, a)
    t = trace_norm_distance(rho, sigma)
    raw = (
        relative_entropy(rho, telescope_mix(rho, sigma, a))
        if 0.0 < a < 1.0
        else sa * (-math.log(a)) if a > 0.0 else float("nan")
    )
    scale = 1.0 / _LN2 if bits else 1.0
    dim = int(np.asarray(rho).shape[0])
    record = {
        "dim": dim,
        "a": a,
        "units": "bits" if bits else "nats",
        "S_a": sa,
        "T": t,
        "S0": tre_limit_zero(rho, sigma),
        "S1": tre_limit_one(rho, sigma),
        "S_rho_tau": raw * scale if math.isfinite(raw) else None,
        # the rank cut at this dim, with no comma to split a csv field
        "epsilon_rank": (
            f"{max(dim, _RANK_CUT_MIN_DIM)} * 2^{math.log2(_EPS_RANK):.0f} * lambda_max (relative)"
        ),
        "epsilon_orth": EPS_ORTH,
        "epsilon_supp": EPS_SUPP,
    }
    if p is not None:
        record["p"] = p
        record["Q_p_a"] = trre(rho, sigma, p, a)
    return record


def _emit_record(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    else:
        keys = sorted(record)
        out.write(",".join(keys) + "\n")
        out.write(
            ",".join(
                _fmt(record[k]) if isinstance(record[k], float) else str(record[k])
                for k in keys
            )
            + "\n"
        )


def figure_rows(spec: FigureSpec) -> tuple[str, list[str], list[list[float]]]:
    """Tabulate one figure: (comment, header columns, data rows).

    fig1a/fig1b sweep sigma = diag(x, 1-x) over x in [0, 1] for a fixed
    rho (pure |0><0| for fig1a, diag(2/3, 1/3) for fig1b), one column per
    a value.  fig2a/fig2b sweep a in [0, 1] for a fixed pair
    (rho = I/2 with sigma = |1><1| resp. diag(1/5, 4/5)); the endpoint
    rows use the closed-form limits.
    """
    grid = np.linspace(0.0, 1.0, spec.points)
    if spec.figure_id in ("fig1a", "fig1b"):
        if spec.figure_id == "fig1a":
            rho = np.diag([1.0, 0.0]).astype(complex)
            comment = "telescopic relative entropy, rho=|0><0|, sigma=diag(x,1-x)"
        else:
            rho = np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex)
            comment = "telescopic relative entropy, rho=diag(2/3,1/3), sigma=diag(x,1-x)"
        header = ["x"] + [f"Sa_a{a:g}" for a in FIG1_A_VALUES]
        sigmas = np.zeros((len(grid), 2, 2), dtype=complex)
        sigmas[:, 0, 0] = grid
        sigmas[:, 1, 1] = 1.0 - grid
        values = telescopic_relative_entropy(
            np.broadcast_to(rho, sigmas.shape), sigmas, FIG1_A_VALUES
        )
        rows = [[x] + row for x, row in zip(grid.tolist(), values.tolist())]
        return comment, header, rows

    rho = np.eye(2, dtype=complex) / 2.0
    if spec.figure_id == "fig2a":
        sigma = np.diag([0.0, 1.0]).astype(complex)
        comment = "telescopic relative entropy vs a, rho=I/2, sigma=|1><1|"
    else:
        sigma = np.diag([0.2, 0.8]).astype(complex)
        comment = "telescopic relative entropy vs a, rho=I/2, sigma=diag(1/5,4/5)"
    header = ["a", "Sa"]
    values = telescopic_relative_entropy(rho, sigma, grid)
    rows = [list(row) for row in zip(grid.tolist(), values.tolist())]
    return comment, header, rows


def _write_csv(comment: str, header: list[str], rows, out) -> None:
    out.write(f"# {comment}; columns: {', '.join(header)}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _cmd_compute(args) -> int:
    rho = load_state(args.rho)
    sigma = load_state(args.sigma)
    record = _compute_record(rho, sigma, args.a, args.p, args.bits)
    _emit_record(record, args.format, sys.stdout)
    return 0


def _cmd_figure(args) -> int:
    spec = FigureSpec(args.figure, args.points)
    comment, header, rows = figure_rows(spec)
    if args.out:
        with open(args.out, "w") as fh:
            _write_csv(comment, header, rows, fh)
    else:
        _write_csv(comment, header, rows, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    config = FuzzConfig(
        dims=tuple(args.dims),
        trials=args.trials,
        seed=args.seed,
        slack=args.slack,
    )
    report = run_fuzz(config)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        for line in report.summary_lines():
            print(line)
    else:
        sys.stdout.write(text)
        for line in report.summary_lines():
            print(line, file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_pure(args) -> int:
    value = tre_pure_closed_form(args.t, args.a)
    record = {
        "t": args.t,
        "a": args.a,
        "w": 4.0 * args.a * (1.0 - args.a) * args.t**2,
        "S_a": value,
        "limit_t_squared": args.t**2,
    }
    sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def _dims_list(text: str) -> list[int]:
    try:
        dims = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")
    if not dims:
        raise argparse.ArgumentTypeError("dimension list is empty")
    return dims


def _env_seed() -> int:
    text = os.environ.get("TRE_SEED")
    if text is None:
        return _DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"TRE_SEED must be an integer, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telent",
        description="Telescopic relative entropy toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="telescopic quantities for two states")
    c.add_argument("rho", help="JSON state file for rho")
    c.add_argument("sigma", help="JSON state file for sigma")
    c.add_argument("--a", type=float, required=True, help="telescoping parameter in [0, 1]")
    c.add_argument("--p", type=float, default=None, help="Renyi order in (0, 1)")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument(
        "--bits",
        action="store_true",
        help="report raw entropies in bits (normalized ratios are base-free)",
    )
    c.set_defaults(func=_cmd_compute)

    f = sub.add_parser("figure", help="CSV data for the survey figures")
    f.add_argument("figure", choices=FIGURE_IDS)
    f.add_argument("--points", type=int, default=101, help="grid resolution")
    f.add_argument("--out", default=None, help="output CSV path (default stdout)")
    f.set_defaults(func=_cmd_figure)

    v = sub.add_parser("verify", help="run the randomized verification suite")
    v.add_argument("--dims", type=_dims_list, default=[2, 3, 4])
    v.add_argument("--trials", type=int, default=1000, help="trials per dimension")
    v.add_argument(
        "--seed",
        type=int,
        default=_env_seed(),
        help="master seed (default: TRE_SEED env var or %(default)s)",
    )
    v.add_argument("--slack", type=float, default=1e-9)
    v.add_argument("--out", default=None, help="report JSON path (default stdout)")
    v.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pure", help="pure-state closed form")
    p.add_argument("--t", type=float, required=True, help="trace norm distance in [0, 1]")
    p.add_argument("--a", type=float, required=True, help="telescoping parameter in (0, 1)")
    p.set_defaults(func=_cmd_pure)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
