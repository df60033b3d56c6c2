#!/usr/bin/env python
"""Compare tier-1's regenerated paper tables with the committed ones.

Every tier-1 run rewrites the ``E*.txt`` tables of the paper-table
benchmarks under the gitignored ``benchmarks/output/scratch/``; the
committed tables sit under ``benchmarks/output/``.  This script
byte-compares the two sets, names each table that differs (with its
first differing line) or that exists on one side only, and exits
non-zero if any does.  Stdlib only.

Usage:
    python scripts/check_tables.py \
        [--committed-dir benchmarks/output] [--run-dir benchmarks/output/scratch]
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from pathlib import Path


def _first_differing_line(committed: bytes, run: bytes) -> int:
    """1-based number of the first line where two different tables part."""
    pairs = zip_longest(committed.splitlines(True), run.splitlines(True))
    return next(number for number, (a, b) in enumerate(pairs, 1) if a != b)


def compare(committed_dir: Path, run_dir: Path) -> list[str]:
    """One line per table that differs or exists on one side only."""
    committed = {path.name: path for path in committed_dir.glob("E*.txt")}
    run = {path.name: path for path in run_dir.glob("E*.txt")}
    problems = []
    for name in sorted(committed.keys() | run.keys()):
        if name not in run:
            problems.append(f"{name}: missing from {run_dir}")
        elif name not in committed:
            problems.append(f"{name}: missing from {committed_dir}")
        else:
            old, new = committed[name].read_bytes(), run[name].read_bytes()
            if old != new:
                problems.append(f"{name}: differs from line {_first_differing_line(old, new)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--committed-dir", type=Path, default=Path("benchmarks/output"))
    parser.add_argument("--run-dir", type=Path, default=Path("benchmarks/output/scratch"))
    args = parser.parse_args(argv)

    if not args.run_dir.is_dir():
        print(f"run directory {args.run_dir} does not exist; run tier-1 first")
        return 2
    if not any(args.committed_dir.glob("E*.txt")):
        print(f"no committed E*.txt under {args.committed_dir}; nothing to check")
        return 2
    print(f"table check: {args.committed_dir} (committed) vs {args.run_dir} (this run)")
    problems = compare(args.committed_dir, args.run_dir)
    for problem in problems:
        print(f"  {problem}")
    if problems:
        print(f"{len(problems)} table(s) differ or are missing")
        return 1
    print("every regenerated table matches the committed one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
