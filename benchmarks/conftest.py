"""Benchmark fixtures.

Every benchmark shares one :class:`ExperimentContext` at *benchmark
scale* (longer captures, full training budget), so the two detectors
train once for the whole run.  Rendered tables are printed and archived
under the lane's output directory (``benchmarks/output/`` when
recording, see ``_bench_lane``) so a benchmark run leaves the
regenerated paper tables on disk.
"""

from __future__ import annotations

import pytest
from _bench_lane import OUTPUT_DIR

from repro.experiments.context import ExperimentContext, ExperimentSettings


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """Benchmark-scale experiment context (shared across all benches)."""
    return ExperimentContext(ExperimentSettings(duration=16.0, epochs=10, seed=2023))


@pytest.fixture(scope="session")
def archive():
    """Callable writing a rendered table to the lane's output/<name>.txt.

    Only recording runs write ``output/`` itself; smoke and unrecorded
    runs archive under ``output/smoke/`` and ``output/scratch/`` (see
    ``_bench_lane``), so they can never overwrite the committed
    trajectory.
    """
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)

    def _write(name: str, text: str) -> None:
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return _write
