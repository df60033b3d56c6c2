"""Memory-mapped accelerator wrapper: the IP as the driver sees it.

The FINN-generated core is integrated "as a slave memory-mapped
peripheral device" (paper, Sec. I).  This wrapper binds an
:class:`~repro.finn.ipgen.AcceleratorIP` to an AXI-lite window and
reproduces the driver-visible protocol:

1. pack the quantised input vector into 32-bit words and write them to
   the input window;
2. write the start bit;
3. poll the status register until done;
4. read the classification result.

Every step is accounted as AXI transactions plus compute time, giving a
per-inference :class:`HWInferenceTrace` — the measured breakdown behind
the paper's 0.12 ms per-message figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import CompileError, SoCError
from repro.finn.build import quantize_input
from repro.finn.compiled import engine_for
from repro.finn.ipgen import AcceleratorIP
from repro.soc.axi import AXILiteBus
from repro.utils.weakcache import KeyedWeakCache

__all__ = ["HWInferenceTrace", "MemoryMappedAccelerator", "pack_words"]


def pack_words(values: np.ndarray, bits_per_value: int) -> list[int]:
    """Pack non-negative integers into little-endian 32-bit words.

    Vectorised: values expand to an LSB-first bit matrix that is folded
    32 bits at a time, matching the scalar shift-accumulate layout the
    driver protocol defines.

    >>> pack_words(np.array([1, 0, 1, 1]), 1)
    [13]
    """
    if bits_per_value < 1 or bits_per_value > 32:
        raise SoCError(f"bits_per_value must be in [1, 32], got {bits_per_value}")
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    if values.size == 0:
        return []
    bad = (values < 0) | (values >= (1 << bits_per_value))
    if bad.any():
        offender = int(values[bad][0])
        raise SoCError(f"value {offender} does not fit in {bits_per_value} bits")
    bits = (values[:, None] >> np.arange(bits_per_value, dtype=np.int64)) & 1
    flat = bits.reshape(-1)
    pad = (-flat.size) % 32
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.int64)])
    words = flat.reshape(-1, 32) @ (np.int64(1) << np.arange(32, dtype=np.int64))
    return [int(word) for word in words]


@dataclass(frozen=True)
class HWInferenceTrace:
    """Timing/transaction breakdown of one hardware inference."""

    mmio_writes: int
    mmio_reads: int
    write_seconds: float
    compute_seconds: float
    poll_seconds: float
    readback_seconds: float

    @property
    def total_seconds(self) -> float:
        """Driver-visible accelerator time (write + compute/poll + read)."""
        return self.write_seconds + max(self.compute_seconds, self.poll_seconds) + self.readback_seconds

    def to_dict(self) -> dict[str, float]:
        return {
            "mmio_writes": self.mmio_writes,
            "mmio_reads": self.mmio_reads,
            "write_seconds": self.write_seconds,
            "compute_seconds": self.compute_seconds,
            "poll_seconds": self.poll_seconds,
            "readback_seconds": self.readback_seconds,
            "total_seconds": self.total_seconds,
        }


class MemoryMappedAccelerator:
    """An :class:`AcceleratorIP` attached to an AXI-lite bus window."""

    def __init__(self, ip: AcceleratorIP, bus: AXILiteBus | None = None, base_address: int = 0xA000_0000):
        self.ip = ip
        self.bus = bus if bus is not None else AXILiteBus()
        self.base = base_address
        span = max(ip.register_map.span, 0x1000)
        self.port = self.bus.map_port(ip.name, base_address, span)
        self._input_bits = ip.export.input_quant.bit_width

    # -- register helpers ------------------------------------------------
    def _addr(self, offset: int) -> int:
        return self.base + offset

    def write_input(self, x_int: np.ndarray) -> int:
        """Write one quantised input vector; returns the MMIO write count."""
        words = pack_words(x_int, self._input_bits)
        expected = self.ip.register_map.input_words
        if len(words) != expected:
            raise SoCError(f"packed {len(words)} input words, register map expects {expected}")
        for index, word in enumerate(words):
            self.bus.write(self._addr(self.ip.register_map.INPUT_BASE + 4 * index), word)
        return len(words)

    def start(self) -> None:
        """Set the start bit (CTRL[0])."""
        self.bus.write(self._addr(self.ip.register_map.CTRL), 1)

    def infer(self, features: np.ndarray) -> tuple[int, HWInferenceTrace]:
        """Run one inference on a raw feature vector.

        Returns the predicted label and the timing trace.  Functional
        results come from the bit-exact dataflow graph; timing comes
        from the AXI cost model plus the core's cycle count.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise SoCError("infer() takes a single feature vector; use run_batch for many")
        x_int = quantize_input(self.ip.export, features[None, :])[0]

        writes_before = self.bus.writes
        busy_before = self.bus.busy_seconds
        self.write_input(x_int)
        self.start()
        write_seconds = self.bus.busy_seconds - busy_before
        mmio_writes = self.bus.writes - writes_before

        compute_seconds = self.ip.latency_seconds
        # Poll STATUS until done: one read per access-latency interval.
        polls = max(int(math.ceil(compute_seconds / self.bus.access_latency)), 1)
        reads_before = self.bus.reads
        busy_before = self.bus.busy_seconds
        label = int(self.ip.run(features[None, :])[0])
        for _ in range(polls - 1):
            self.bus.read(self._addr(self.ip.register_map.STATUS))
        self.bus.poke(self._addr(self.ip.register_map.STATUS), 1)  # device raises done
        self.bus.read(self._addr(self.ip.register_map.STATUS))
        poll_seconds = self.bus.busy_seconds - busy_before

        busy_before = self.bus.busy_seconds
        self.bus.poke(self._addr(self.ip.register_map.OUT_LABEL), label)
        result = self.bus.read(self._addr(self.ip.register_map.OUT_LABEL))
        readback_seconds = self.bus.busy_seconds - busy_before
        mmio_reads = self.bus.reads - reads_before

        trace = HWInferenceTrace(
            mmio_writes=mmio_writes,
            mmio_reads=mmio_reads,
            write_seconds=write_seconds,
            compute_seconds=compute_seconds,
            poll_seconds=poll_seconds,
            readback_seconds=readback_seconds,
        )
        return result, trace

    def run_batch(self, features: np.ndarray, compiled: bool = True) -> np.ndarray:
        """Functional batch execution (no per-frame AXI accounting).

        The default path runs the fused integer engine
        (:func:`repro.finn.compiled.engine_for`) — bit-exact against the
        dataflow graph and several times faster; the engine is cached on
        the export, so every ECU sharing this IP shares one compiled
        model.  A graph the engine refuses (not streamlined, or not
        exactly reproducible, e.g. float quantiser scales) runs on the
        node-by-node float graph, as ``compiled=False`` does (the golden
        reference, kept for A/B benchmarking).
        """
        if compiled:
            try:
                return engine_for(self.ip).predict(features)
            except CompileError:
                pass  # refused graph: reference path below
        return self.ip.run(features)

    def reference_trace(self) -> HWInferenceTrace:
        """The steady-state per-inference trace (identical every frame).

        The driver protocol is data independent, so one measured trace
        characterises all frames; batch processing reuses it instead of
        replaying millions of AXI transactions.  The replay itself is
        also data independent *across accelerator instances*: the trace
        is a pure function of the IP's latency/register map and the
        bus's access latency, so it is measured once per (IP, bus
        timing) pair and shared — a campaign sweep instantiating dozens
        of ECUs around one IP pays for one protocol replay, not one per
        ECU.
        """
        key = (id(self.ip), float(self.bus.access_latency))
        trace = _TRACE_CACHE.get(key, self.ip)
        if trace is None:
            zeros = np.zeros(self.ip.export.input_features, dtype=np.float64)
            _, trace = self.infer(zeros)
            _TRACE_CACHE.put(key, self.ip, trace)
        return trace


#: (id(ip), bus access latency) -> measured trace, anchored on the IP.
_TRACE_CACHE = KeyedWeakCache()
