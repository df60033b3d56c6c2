"""Transaction-level cycle-accurate simulation of the dataflow pipeline.

Each hardware stage is characterised by its initiation interval (II,
cycles between samples) and pipeline latency; the simulator propagates
per-sample timestamps through the stage chain, exactly like FINN's
rtlsim-based performance validation but at transaction granularity:

* single-sample latency = when sample 0 leaves the last stage;
* steady-state throughput = clock / max(II);
* FIFO depths = maximum observed inter-stage occupancy (this is how
  the compiler sizes the real FIFOs — FINN derives them from RTL
  simulation the same way).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CompileError
from repro.finn.hls_layers import HWPipeline

__all__ = ["SimReport", "CycleSimulator"]


@dataclass
class SimReport:
    """Results of one cycle simulation run."""

    num_samples: int
    clock_hz: float
    latency_cycles: int
    steady_ii: int
    total_cycles: int
    stage_names: list[str] = field(default_factory=list)
    stage_iis: list[int] = field(default_factory=list)
    stage_latencies: list[int] = field(default_factory=list)
    fifo_occupancy: list[int] = field(default_factory=list)
    output_times_cycles: np.ndarray | None = None

    @property
    def latency_seconds(self) -> float:
        return self.latency_cycles / self.clock_hz

    @property
    def throughput_fps(self) -> float:
        """Steady-state samples/second (gated by the slowest stage)."""
        return self.clock_hz / self.steady_ii

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "clock_hz": self.clock_hz,
            "latency_cycles": self.latency_cycles,
            "latency_seconds": self.latency_seconds,
            "steady_ii": self.steady_ii,
            "throughput_fps": self.throughput_fps,
            "stages": [
                {"name": n, "ii": i, "latency": l}
                for n, i, l in zip(self.stage_names, self.stage_iis, self.stage_latencies)
            ],
            "fifo_occupancy": list(self.fifo_occupancy),
        }


class CycleSimulator:
    """Simulate a :class:`~repro.finn.hls_layers.HWPipeline` over time."""

    def __init__(self, pipeline: HWPipeline, clock_hz: float = 100e6):
        if not pipeline.stages:
            raise CompileError("cannot simulate an empty pipeline")
        if clock_hz <= 0:
            raise CompileError(f"clock must be positive, got {clock_hz}")
        self.pipeline = pipeline
        self.clock_hz = float(clock_hz)

    def simulate(
        self,
        num_samples: int,
        arrival_cycles: np.ndarray | None = None,
    ) -> SimReport:
        """Push ``num_samples`` through the pipeline.

        Parameters
        ----------
        arrival_cycles:
            Cycle timestamps at which samples arrive; back-to-back
            (every sample ready at cycle 0) when omitted — the standard
            max-throughput measurement.
        """
        if num_samples < 1:
            raise CompileError("num_samples must be >= 1")
        stages = self.pipeline.stages
        if arrival_cycles is None:
            arrivals = np.zeros(num_samples, dtype=np.int64)
        else:
            arrivals = np.asarray(arrival_cycles, dtype=np.int64)
            if arrivals.shape != (num_samples,):
                raise CompileError("arrival_cycles must have shape (num_samples,)")
            if np.any(np.diff(arrivals) < 0):
                raise CompileError("arrival_cycles must be non-decreasing")

        available = arrivals.astype(np.int64)
        start_times: list[np.ndarray] = []
        for stage in stages:
            ii = stage.initiation_interval
            latency = stage.latency_cycles
            starts = np.empty(num_samples, dtype=np.int64)
            previous_start = -(10**12)
            for n in range(num_samples):
                starts[n] = max(int(available[n]), previous_start + ii)
                previous_start = starts[n]
            start_times.append(starts)
            available = starts + latency  # outputs feed the next stage

        outputs = available  # completion times at the last stage
        # FIFO occupancy between stage i and i+1: samples produced by i
        # but not yet consumed (started) by i+1.
        occupancies: list[int] = []
        for i in range(len(stages) - 1):
            produced = start_times[i] + stages[i].latency_cycles
            consumed = start_times[i + 1]
            max_occ = 0
            for n in range(num_samples):
                # How many samples <= n are still waiting when sample n is produced?
                waiting = int(np.sum((produced[: n + 1] <= produced[n]) & (consumed[: n + 1] > produced[n])))
                max_occ = max(max_occ, waiting)
            occupancies.append(max_occ)

        return SimReport(
            num_samples=num_samples,
            clock_hz=self.clock_hz,
            latency_cycles=int(outputs[0] - arrivals[0]),
            steady_ii=self.pipeline.initiation_interval,
            total_cycles=int(outputs[-1]),
            stage_names=[getattr(s, "name", type(s).__name__) for s in stages],
            stage_iis=[s.initiation_interval for s in stages],
            stage_latencies=[s.latency_cycles for s in stages],
            fifo_occupancy=occupancies,
            output_times_cycles=outputs,
        )

    def size_fifos(self, num_samples: int = 32) -> None:
        """Set FIFO depths from observed occupancy (minimum depth 2)."""
        report = self.simulate(num_samples)
        for fifo, occupancy in zip(self.pipeline.fifos, report.fifo_occupancy):
            fifo.depth = max(int(occupancy) + 1, 2)
