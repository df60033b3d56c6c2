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
from here instead of re-deriving them per file.
"""

import os
import statistics
from pathlib import Path

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
