"""Experiment E2 — Table II: per-message latency comparison.

Published rows are quoted (they were measured on the original authors'
GPUs/edge boxes); our row is **measured** by running the deployed 4-bit
QMLP through the full ECU receive path (driver MMIO + accelerator
cycle model + OS path).  The table also normalises block-based systems
to per-frame latency, the comparison the paper argues for in the text.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.published import PAPER_QMLP_LATENCY, PUBLISHED_LATENCY
from repro.datasets.features import BitFeatureEncoder
from repro.experiments.context import ExperimentContext
from repro.soc.ecu import IDSEnabledECU
from repro.utils.rng import derive_seed
from repro.utils.tables import Table

__all__ = ["Table2Result", "run_table2", "render_table2"]


@dataclass
class Table2Result:
    """Our measured latency plus derived comparison figures."""

    measured_latency_ms: float
    p99_latency_ms: float
    throughput_fps: float
    speedup_vs_mth: float  # the paper's headline 4.8x over MTH-IDS


def run_table2(context: ExperimentContext, eval_frames: int = 4000) -> Table2Result:
    """Measure our per-message latency through the ECU pipeline."""
    ip = context.ip("dos")
    capture = context.capture("dos")
    ecu = IDSEnabledECU(
        ip,
        BitFeatureEncoder(),
        name="table2-ecu",
        seed=derive_seed(context.settings.seed, "table2-ecu"),
    )
    report = ecu.process_capture(capture[:eval_frames], with_metrics=False)
    mth = next(row for row in PUBLISHED_LATENCY if row.model == "MTH-IDS")
    measured_ms = 1e3 * report.mean_latency_s
    return Table2Result(
        measured_latency_ms=measured_ms,
        p99_latency_ms=1e3 * report.p99_latency_s,
        throughput_fps=report.throughput_fps,
        speedup_vs_mth=mth.latency_ms / measured_ms,
    )


def render_table2(result: Table2Result) -> Table:
    """Render Table II with a per-frame normalised column added."""
    table = Table(
        ["Model", "Latency", "Frames", "Per-frame", "Platform"],
        title="Table II: per-message latency comparison against reported literature",
    )
    for row in PUBLISHED_LATENCY:
        table.add_row(
            [
                row.model,
                f"{row.latency_ms:g} ms",
                row.frames,
                f"{row.per_frame_ms:.3f} ms",
                row.platform,
            ]
        )
    table.add_row(
        [
            PAPER_QMLP_LATENCY.model,
            f"{PAPER_QMLP_LATENCY.latency_ms:g} ms",
            PAPER_QMLP_LATENCY.frames,
            f"{PAPER_QMLP_LATENCY.per_frame_ms:.3f} ms",
            PAPER_QMLP_LATENCY.platform,
        ]
    )
    table.add_row(
        [
            "4-bit-QMLP (ours, measured)",
            f"{result.measured_latency_ms:.3f} ms",
            "per CAN frame",
            f"{result.measured_latency_ms:.3f} ms",
            "Zynq Ultrascale+ (simulated)",
        ]
    )
    return table
