"""FINN-style dataflow compiler — the library's FINN substitute.

The paper compiles its Brevitas-trained MLP with AMD/Xilinx FINN into a
streaming FPGA IP ("streaming layer optimisations and partitioning were
chosen during FINN compilation flow").  This package reproduces that
flow end to end:

1. :mod:`~repro.finn.build` — lower a trained
   :class:`~repro.quant.export.QNNExport` into a frontend dataflow graph
   (integer MatMul + float bias/activation-quant nodes).
2. :mod:`~repro.finn.streamline` — FINN's streamlining: absorb scales
   and biases into integer **MultiThreshold** nodes
   (:mod:`~repro.finn.thresholds` does the exact integer conversion).
3. :mod:`~repro.finn.folding` — PE/SIMD parallelism selection per layer
   to hit a target throughput.
4. :mod:`~repro.finn.hls_layers` / :mod:`~repro.finn.resources` — map to
   Matrix-Vector-Activation Units and estimate LUT/FF/BRAM/DSP with
   FINN-R-style analytical cost models.
5. :mod:`~repro.finn.cyclesim` — transaction-level cycle-accurate
   simulation of the streaming pipeline (initiation intervals, FIFO
   back-pressure, per-sample latency).
6. :mod:`~repro.finn.verify` — prove the compiled IP is **bit-exact**
   against the trained QAT model.
7. :mod:`~repro.finn.ipgen` — package everything as an
   :class:`~repro.finn.ipgen.AcceleratorIP` with an AXI register map the
   SoC driver can bind to.

``compile_model`` is the one-call facade mirroring FINN's build flow.
The streamlining pass is imported from its module,
``from repro.finn.streamline import streamline``, so the package
attribute ``repro.finn.streamline`` stays the submodule.
"""

from repro.finn.build import build_frontend_graph
from repro.finn.compiled import CompiledEngine, compile_engine, engine_cache_info, engine_for
from repro.finn.cyclesim import CycleSimulator, SimReport
from repro.finn.folding import FoldingConfig, fold_for_target
from repro.finn.graph import DataflowGraph
from repro.finn.hls_layers import MVAU, StreamingFIFO, to_hw_pipeline
from repro.finn.ipgen import AcceleratorIP, compile_model
from repro.finn.resources import ResourceEstimate
from repro.finn.thresholds import compute_thresholds
from repro.finn.verify import verify_bit_exact

__all__ = [
    "MVAU",
    "AcceleratorIP",
    "CompiledEngine",
    "CycleSimulator",
    "DataflowGraph",
    "FoldingConfig",
    "ResourceEstimate",
    "SimReport",
    "StreamingFIFO",
    "build_frontend_graph",
    "compile_engine",
    "compile_model",
    "compute_thresholds",
    "engine_cache_info",
    "engine_for",
    "fold_for_target",
    "to_hw_pipeline",
    "verify_bit_exact",
]
