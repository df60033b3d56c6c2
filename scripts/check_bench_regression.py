#!/usr/bin/env python
"""Guard the committed benchmark trajectory against silent regressions.

Compares the ``BENCH_*.json`` files committed under ``--baseline-dir``
(the perf trajectory the repo claims) against a fresh run's files under
``--run-dir`` (e.g. the ``scripts/bench.sh --smoke`` lane in CI).  For
every file present in both directories it matches numeric leaves by
dotted path and splits them into two classes:

* **gating** — ``fps`` rate metrics.  These are deterministic model /
  pipeline properties (II-gated sustained rates, arbitrated shares),
  identical across machines and input scales, so any drop is a real
  behavioural regression.  The per-file **median** of run/baseline
  ratios must stay above ``1 - threshold`` (default 20%).
* **informational** — ``speedup`` ratios and ``wall``-clock rates
  (e.g. ``BENCH_inference.json``'s ``graph_wall_fps`` /
  ``compiled_wall_fps``, ``BENCH_bus.json``'s ``event_wall_fps`` /
  ``columnar_wall_fps``, ``BENCH_fleet.json``'s
  ``*_wall_vehicles_per_sec`` and ``auto_speedup``).  Wall-clock based
  and noisy (they swing tens of percent run-to-run on one machine, more
  across smoke-scale inputs); they are printed for the log but never
  fail the check.
  ``BENCH_bus.json`` gates on its deterministic ``offered_fps``
  traffic rates instead — a property of the seeded scenario, identical
  across machines.
  Their hard floors live in the benchmarks themselves (``MIN_SPEEDUP``
  asserts), which the smoke lane still executes.  Informational
  markers take precedence, so a wall-clock rate may honestly carry an
  ``fps`` unit without joining the gate; ``BENCH_inference.json``
  still gates on the median of its deterministic fps leaves
  (``core_throughput_fps``, ``ecu_sustained_fps``).

Any file whose gating median falls below the threshold makes the
script exit non-zero.  The check is wired as a *non-blocking* CI step:
it flags drift loudly without turning noise into red builds.

Usage:
    python scripts/check_bench_regression.py \
        [--baseline-dir benchmarks/output] [--run-dir benchmarks/output/smoke] \
        [--threshold 0.2]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Substrings marking a numeric leaf as a gating rate metric: ``fps``
#: rates are deterministic pipeline properties.
GATING_KEY_MARKERS = ("fps",)

#: Substrings marking a leaf as wall-clock-derived: compared and printed,
#: but never failing the check.  Checked before the gating markers, so
#: a wall-clock rate named ``*_wall_fps`` stays informational.
INFO_KEY_MARKERS = ("speedup", "wall")

#: Substrings marking a leaf as environment-bound (never compared).
SKIP_KEY_MARKERS = ("seconds", "overhead", "required")


def numeric_leaves(node, prefix: str = "") -> dict[str, float]:
    """Flatten a JSON tree to ``{dotted.path: value}`` for numeric leaves."""
    leaves: dict[str, float] = {}
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = ((str(index), value) for index, value in enumerate(node))
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            leaves[prefix] = float(node)
        return leaves
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        leaves.update(numeric_leaves(value, path))
    return leaves


def classify(path: str) -> str | None:
    """``"gating"``, ``"info"`` or None (not compared) for one leaf path."""
    lowered = path.lower()
    if any(marker in lowered for marker in SKIP_KEY_MARKERS):
        return None
    if any(marker in lowered for marker in INFO_KEY_MARKERS):
        return "info"
    if any(marker in lowered for marker in GATING_KEY_MARKERS):
        return "gating"
    return None


def compare_file(baseline_path: Path, run_path: Path, threshold: float) -> bool:
    """Print one file's comparison; return True when it regressed.

    A baseline metric must be positive to anchor a ratio; run-side
    zeros stay in, so a metric that collapsed to 0 reads as a total
    regression rather than silently dropping out of the comparison.
    """
    baseline = numeric_leaves(json.loads(baseline_path.read_text()))
    run = numeric_leaves(json.loads(run_path.read_text()))
    gating_ratios = []
    compared = 0
    for path in sorted(set(baseline) & set(run)):
        kind = classify(path)
        if kind is None or baseline[path] <= 0:
            continue
        compared += 1
        ratio = run[path] / baseline[path]
        if kind == "gating":
            gating_ratios.append(ratio)
        marker = "  !" if kind == "gating" and ratio < 1.0 - threshold else ""
        note = " (informational)" if kind == "info" else ""
        print(
            f"    {path}: committed {baseline[path]:,.1f} -> run {run[path]:,.1f} "
            f"({100.0 * ratio:.0f}%){note}{marker}"
        )
    if not compared:
        print(f"  {baseline_path.name}: no shared metrics to compare, skipping")
        return False
    if not gating_ratios:
        print(f"  {baseline_path.name}: informational metrics only -> ok")
        return False
    median = statistics.median(gating_ratios)
    regressed = median < 1.0 - threshold
    verdict = "REGRESSED" if regressed else "ok"
    print(
        f"  {baseline_path.name}: gating median {100.0 * median:.0f}% of committed "
        f"({len(gating_ratios)} metrics) -> {verdict}"
    )
    return regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=Path, default=Path("benchmarks/output"))
    parser.add_argument("--run-dir", type=Path, default=Path("benchmarks/output/smoke"))
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed fractional drop of the per-file gating median (default 0.2)",
    )
    args = parser.parse_args(argv)

    if not args.run_dir.is_dir():
        print(f"run directory {args.run_dir} does not exist; nothing to check")
        return 2
    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no committed BENCH_*.json under {args.baseline_dir}; nothing to check")
        return 2

    print(
        f"bench-regression check: {args.baseline_dir} (committed) vs "
        f"{args.run_dir} (this run), threshold {100.0 * args.threshold:.0f}%"
    )
    failures = 0
    for baseline_path in baselines:
        run_path = args.run_dir / baseline_path.name
        if not run_path.exists():
            print(f"  {baseline_path.name}: not produced by this run, skipping")
            continue
        if compare_file(baseline_path, run_path, args.threshold):
            failures += 1
    if failures:
        print(f"{failures} benchmark file(s) regressed beyond the threshold")
        return 1
    print("benchmark trajectory holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
