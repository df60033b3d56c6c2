"""Lane plumbing shared by the micro-benchmarks.

Where a run archives its output depends on who asked for it:

* ``scripts/bench.sh`` (the full lane) exports ``REPRO_BENCH_RECORD=1``
  and records the committed trajectory in ``benchmarks/output/``;
* ``scripts/bench.sh --smoke`` (the CI lane) exports
  ``REPRO_BENCH_SMOKE=1``: benchmarks shrink to one iteration over tiny
  inputs and archive under ``benchmarks/output/smoke/``;
* any other run, such as a plain tier-1 ``pytest``, archives under
  ``benchmarks/output/scratch/``.

Both subdirectories are gitignored, so only a deliberate recording run
rewrites the committed trajectory.  Import ``SMOKE`` and ``OUTPUT_DIR``
from here instead of re-deriving them per file, and write BENCH files
through :func:`write_bench`.
"""

import json
import os
import platform
import statistics
from pathlib import Path

import numpy as np

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

OUTPUT_DIR = Path(__file__).parent / "output"
if SMOKE:
    OUTPUT_DIR = OUTPUT_DIR / "smoke"
elif os.environ.get("REPRO_BENCH_RECORD") != "1":
    OUTPUT_DIR = OUTPUT_DIR / "scratch"


def relative_spread(samples):
    """Interquartile range over median: the noise floor of in-run A/B gates."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / median


def write_bench(name, payload):
    """Write ``payload`` to ``OUTPUT_DIR/BENCH_<name>.json`` with an ``env`` block.

    The block fingerprints the host (cores, Python, numpy, platform), so
    ``scripts/check_bench_regression.py`` can tell a like-for-like
    comparison from a cross-host one.
    """
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"BENCH_{name}.json").write_text(
        json.dumps({**payload, "env": env}, indent=2) + "\n", encoding="utf-8"
    )
