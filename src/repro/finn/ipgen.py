"""IP packaging: the compiled accelerator artefact.

``compile_model`` is the facade over the whole FINN-substitute flow —
export, frontend build, streamlining, folding, hardware mapping, FIFO
sizing, resource estimation and bit-exactness verification — returning
an :class:`AcceleratorIP`: the object the SoC layer instantiates as a
memory-mapped peripheral, exactly like the HLS IP + driver pair FINN
emits for the Zynq design flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.module import Module
from repro.finn.build import build_frontend_graph, quantize_input
from repro.finn.compiled import _is_po2
from repro.finn.cyclesim import CycleSimulator, SimReport
from repro.finn.folding import FoldingConfig, fold_for_target
from repro.finn.graph import DataflowGraph
from repro.finn.hls_layers import HWPipeline, to_hw_pipeline
from repro.finn.resources import ResourceEstimate, wrapper_resources
from repro.finn.streamline import streamline
from repro.finn.verify import VerificationReport, verify_bit_exact
from repro.quant.export import QNNExport, export_qnn
from repro.utils.rng import new_rng

__all__ = ["RegisterMap", "AcceleratorIP", "compile_model"]


@dataclass(frozen=True)
class RegisterMap:
    """AXI-lite register layout of the generated IP.

    Mirrors the Vivado HLS ``s_axilite`` convention the FINN/PYNQ flow
    uses: a control register, a status register, the result register
    and a write-only input buffer window.
    """

    CTRL: int = 0x00  # bit0: start
    STATUS: int = 0x04  # bit0: done, bit1: busy
    OUT_LABEL: int = 0x08
    INPUT_BASE: int = 0x10
    input_words: int = 0
    #: Total address span in bytes (word aligned).
    span: int = 0

    @staticmethod
    def for_input(features: int, bits_per_feature: int) -> "RegisterMap":
        """Register map for an input vector of ``features`` x ``bits``."""
        total_bits = features * bits_per_feature
        words = (total_bits + 31) // 32
        return RegisterMap(input_words=words, span=0x10 + 4 * words)


@dataclass
class AcceleratorIP:
    """A compiled, verified IDS accelerator core.

    Attributes
    ----------
    graph:
        Streamlined integer dataflow graph (functional semantics).
    pipeline:
        Hardware stage models with folding applied (timing/resources).
    resources:
        Total estimate including the AXI wrapper.
    """

    name: str
    export: QNNExport
    graph: DataflowGraph
    pipeline: HWPipeline
    folding: FoldingConfig
    clock_hz: float
    resources: ResourceEstimate
    register_map: RegisterMap
    verification: VerificationReport | None = None
    metadata: dict = field(default_factory=dict)

    # -- functional execution -------------------------------------------
    def run(self, features: np.ndarray) -> np.ndarray:
        """Classify raw feature vectors; returns predicted labels (N,)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        x_int = quantize_input(self.export, features)
        output = self.graph.execute(x_int)
        if output.shape[1] == 1:  # argmax head present
            return output.reshape(-1).astype(np.int64)
        return output.argmax(axis=1)

    def logits(self, features: np.ndarray) -> np.ndarray:
        """De-quantised logits for raw feature vectors."""
        from repro.finn.verify import _execute_logits

        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        x_int = quantize_input(self.export, features)
        logits, _ = _execute_logits(self.graph, x_int)
        return logits

    # -- timing ----------------------------------------------------------
    @property
    def latency_cycles(self) -> int:
        """Single-inference latency of the hardware core."""
        return self.pipeline.latency_cycles

    @property
    def latency_seconds(self) -> float:
        return self.latency_cycles / self.clock_hz

    @property
    def throughput_fps(self) -> float:
        """Steady-state inferences/second of the core alone."""
        return self.clock_hz / self.pipeline.initiation_interval

    def simulate(self, num_samples: int, arrival_cycles: np.ndarray | None = None) -> SimReport:
        """Run the cycle-accurate pipeline simulation."""
        return CycleSimulator(self.pipeline, self.clock_hz).simulate(num_samples, arrival_cycles)

    # -- reporting ---------------------------------------------------------
    def summary(self) -> str:
        lines = [
            f"AcceleratorIP {self.name!r} @ {self.clock_hz / 1e6:g} MHz",
            f"  topology: {'-'.join(str(w) for w in self.export.topology)}",
            f"  folding:  PE={self.folding.pe} SIMD={self.folding.simd}",
            f"  II: {self.pipeline.initiation_interval} cycles "
            f"({self.throughput_fps:,.0f} fps), "
            f"latency: {self.latency_cycles} cycles ({self.latency_seconds * 1e6:.2f} us)",
            f"  resources: {self.resources}",
        ]
        if self.verification:
            lines.append(f"  {self.verification}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "clock_hz": self.clock_hz,
            "topology": self.export.topology,
            "folding": self.folding.to_dict(),
            "initiation_interval": self.pipeline.initiation_interval,
            "latency_cycles": self.latency_cycles,
            "throughput_fps": self.throughput_fps,
            "resources": self.resources.to_dict(),
            "register_map": {
                "CTRL": self.register_map.CTRL,
                "STATUS": self.register_map.STATUS,
                "OUT_LABEL": self.register_map.OUT_LABEL,
                "INPUT_BASE": self.register_map.INPUT_BASE,
                "input_words": self.register_map.input_words,
            },
            "metadata": dict(self.metadata),
        }


def compile_model(
    model: Module | QNNExport,
    name: str = "ids-accel",
    target_fps: float = 1e6,
    clock_mhz: float = 100.0,
    pad_multiple: int = 8,
    with_argmax: bool = True,
    verify: bool = True,
    verify_samples: int = 64,
    seed: int = 0,
) -> AcceleratorIP:
    """Compile a trained quantised model into a verified accelerator IP.

    Parameters
    ----------
    model:
        A trained QAT module (canonical topology) or a ready
        :class:`~repro.quant.export.QNNExport`.
    target_fps:
        Folding throughput target; the paper's flow folds for
        well-above-line-rate throughput, leaving latency dominated by
        the software path.
    verify:
        Run the bit-exactness check against ``verify_samples`` random
        feature vectors before returning (fails loudly, like FINN's
        verification-enabled builds).
    """
    export = model if isinstance(model, QNNExport) else export_qnn(model)
    clock_hz = clock_mhz * 1e6
    frontend = build_frontend_graph(export, with_argmax=with_argmax, name=name)
    hw_graph = streamline(frontend, pad_multiple=pad_multiple)
    folding = fold_for_target(hw_graph, target_fps=target_fps, clock_hz=clock_hz)
    pipeline = to_hw_pipeline(hw_graph, folding)
    CycleSimulator(pipeline, clock_hz).size_fifos()
    resources = pipeline.core_resources() + wrapper_resources()
    register_map = RegisterMap.for_input(export.input_features, export.input_quant.bit_width)

    verification: VerificationReport | None = None
    if verify:
        rng = new_rng(seed, f"compile-verify-{name}")
        samples = rng.random((verify_samples, export.input_features))
        # Exactness is only guaranteed when every scale in the network is a
        # power of two (the library default); float scales get a tolerance.
        scales = [export.input_quant.scale]
        for layer in export.layers:
            scales.extend(np.asarray(layer.weight_scale, dtype=np.float64).reshape(-1).tolist())
            if layer.activation is not None:
                scales.append(layer.activation.scale)
        require_exact = all(_is_po2(float(s)) for s in scales)
        verification = verify_bit_exact(export, hw_graph, samples, require_exact=require_exact)

    return AcceleratorIP(
        name=name,
        export=export,
        graph=hw_graph,
        pipeline=pipeline,
        folding=folding,
        clock_hz=clock_hz,
        resources=resources,
        register_map=register_map,
        verification=verification,
        metadata={"target_fps": target_fps, "pad_multiple": pad_multiple},
    )
