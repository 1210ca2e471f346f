#!/usr/bin/env python
"""Regenerate the CSV data behind all four survey figures."""

from __future__ import annotations

import argparse
from pathlib import Path

from telent.cli import FIGURE_IDS, main as cli_main


def main() -> None:
    p = argparse.ArgumentParser(description="Write the CSV of every survey figure")
    p.add_argument("--outdir", type=Path, default=Path("figures"))
    p.add_argument("--points", type=int, default=101)
    args = p.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    for fig in FIGURE_IDS:
        out = args.outdir / f"{fig}.csv"
        rc = cli_main(["figure", fig, "--points", str(args.points), "--out", str(out)])
        if rc != 0:
            raise SystemExit(rc)
        print(out)


if __name__ == "__main__":
    main()
