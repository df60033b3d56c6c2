"""One-shot compiler lowering a streamlined graph to a fused integer engine.

The functional model executes a streamlined :class:`DataflowGraph` node
by node in float64, re-broadcasting every accumulator against all
``2**bits - 1`` thresholds.  That is the right *reference* semantics —
and a terrible batch path: the ``(N, C, T)`` comparison tensor
dominates the whole receive pipeline.  :func:`compile_engine` walks the
graph once and emits a :class:`CompiledEngine` whose ``predict`` is
bit-exact against ``DataflowGraph.execute`` but built from flat kernels:

* **Pads folded away.**  FINN pads matmul inputs with zero columns;
  the engine slices those columns off the weight matrix instead of
  materialising padded activations (zero columns never contribute).
* **Float32 SGEMM on integers.**  Weights and activations are small
  integers, and every partial sum is bounded by the layer's worst-case
  accumulator magnitude ``B = max_c sum_k |w[c, k]| * max|x|`` (BLAS may
  reorder the reduction; any subset of products is still bounded by
  the sum of absolute products).  With ``B < 2**24`` float32 BLAS is
  exact — and ~15x faster than numpy's integer matmul.
* **Staircases folded into the matmul.**  Power-of-two quantiser scales
  give every MultiThreshold channel thresholds ``T0 + k*D`` with ``D`` a
  power of two, so the staircase is ``clip(floor((acc - (T0 - D)) / D),
  0, steps)``.  Compilation folds ``1/D`` and the offset into the
  layer's float32 operand, ``[W / D; (D - T0) / D]``, whose last row
  multiplies a ones column that every activation buffer carries.  Each
  layer is then ``clip(floor(x @ operand), 0, steps)``: one SGEMM and
  two passes, whatever the step count, instead of the dense ``>=``
  broadcast.  ``1/D`` is a power of two, so every term and every
  partial sum, in any BLAS order and with FMA, is an integer multiple
  of ``1/D`` of magnitude at most ``(B + |T0 - D|) / D``, and
  compilation refuses ``B + |T0 - D| >= 2**24``: nothing rounds.
  ``floor`` and ``clip`` leave the ones column at 1.
* **Bits in.**  A ``bool`` feature matrix (what
  :class:`~repro.datasets.features.BitFeatureEncoder` emits) fills the
  input buffer as ``bits * q1``, ``q1`` being the quantised 1.0: every
  quantiser maps 0.0 to 0, so that one multiply is the input quantiser,
  exactly.  Float features take the float64 quantiser.  Only float and
  integer inputs can carry NaN, so only on those routes does the first
  layer map a NaN accumulator to 0 steps (``NaN >= t`` is False in the
  graph); every later layer's input is finite.
* **Preallocated chunk buffers.**  Batches stream through fixed
  per-layer scratch buffers (thread-local, so one engine can serve
  callers on several threads at once) instead of allocating a tensor
  per node per batch.
* **Integer argmax.**  The classification head runs on the integer
  accumulators directly whenever the final de-quantisation provably
  preserves order and ties (uniform power-of-two scale, zero bias);
  otherwise the exact float64 affine of :class:`ScaleBiasNode` is
  applied to the (tiny) logit matrix first.

A graph outside that shape — thresholds not evenly spaced by a power of
two (float quantiser scales), or accumulators reaching ``2**24`` —
raises :class:`~repro.errors.CompileError`, and
:meth:`~repro.soc.accelerator.MemoryMappedAccelerator.run_batch` serves
it from the float graph instead: one fast path, one reference.

``engine_for`` memoises compilation per export, so a multi-channel
gateway and all campaign-sweep scenarios carrying the same
:class:`~repro.finn.ipgen.AcceleratorIP` share one compiled model
instead of re-lowering the graph per ECU.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.finn.ipgen import AcceleratorIP
    from repro.quant.export import ActQuantExport

from repro.errors import CompileError, ShapeError, VerificationError
from repro.finn.build import input_quant_range, quantize_features
from repro.finn.graph import (
    ArgMaxNode,
    DataflowGraph,
    MatMulIntNode,
    MultiThresholdNode,
    PadNode,
    ScaleBiasNode,
)
from repro.utils.rng import new_rng
from repro.utils.weakcache import KeyedWeakCache

__all__ = [
    "CompiledEngine",
    "EngineCacheInfo",
    "compile_engine",
    "engine_for",
    "engine_cache_info",
]

#: Integer magnitudes below this are exact in float32 (24-bit mantissa).
_F32_EXACT = 2**24


@dataclass(frozen=True)
class _Staircase:
    """A MultiThreshold layer as ``clip(floor(acc * scale + bias), 0, steps)``."""

    scale: np.ndarray  #: per-channel ``1/D``, float32 (exact: ``D`` is a power of two)
    bias: np.ndarray  #: per-channel ``(D - T0) / D`` (``T0`` clipped), float32
    steps: int


@dataclass(frozen=True)
class _LayerPlan:
    """One fused MatMul(+MultiThreshold) stage of the engine."""

    name: str
    #: (in + 1, out) contiguous float32 operand; its last row (the folded
    #: staircase bias, zero on the final layer) meets the ones column.
    operand: np.ndarray
    abs_bound: int  #: worst-case |accumulator|
    steps: int | None  #: staircase height; None on the final (ScaleBias) layer

    @property
    def in_features(self) -> int:
        return int(self.operand.shape[0]) - 1

    @property
    def out_features(self) -> int:
        return int(self.operand.shape[1])


class _Scratch:
    """Per-thread preallocated chunk buffers for one engine.

    ``acts[0]`` holds the inputs and ``acts[i + 1]`` layer ``i``'s
    output: each layer's accumulators become its activation counts in
    place and feed the next matmul directly.  Every buffer that feeds a
    matmul ends in a ones column, set here once; the final accumulators
    have none.  The float64 quantiser buffer is made on the first float
    chunk, so bit and integer inputs never allocate it.
    """

    def __init__(self, layers: list[_LayerPlan], rows: int) -> None:
        self.quant: np.ndarray | None = None
        widths = [layers[0].in_features] + [layer.out_features for layer in layers]
        self.acts = [np.ones((rows, width + 1), dtype=np.float32) for width in widths[:-1]]
        self.acts.append(np.empty((rows, widths[-1]), dtype=np.float32))


class CompiledEngine:
    """A streamlined dataflow graph fused into flat batch kernels.

    Instances are built by :func:`compile_engine` (or fetched from the
    :func:`engine_for` cache) and are immutable after compilation;
    scratch buffers are thread-local, so one engine may be shared by
    concurrent sessions.
    """

    #: Rows per internal chunk: 2048 keeps every per-layer buffer in
    #: cache (measured ~20% faster than 8192 on the canonical net).
    chunk_size = 2048

    def __init__(
        self,
        layers: list[_LayerPlan],
        final_scale: np.ndarray,
        final_bias: np.ndarray,
        has_argmax: bool,
        input_features: int,
        input_quant: "ActQuantExport | None",
        source_graph: DataflowGraph,
    ) -> None:
        self._layers = layers
        self._final_scale = final_scale.reshape(1, -1)
        self._final_bias = final_bias
        self.has_argmax = has_argmax
        self.input_features = input_features
        self.input_quant = input_quant
        if input_quant is not None:
            self._qmin, self._qmax = input_quant_range(input_quant)
            # The quantised 1.0: a bit matrix fills the inputs as bits * q1.
            one = np.ones((1, 1), dtype=np.float64)
            self._q1 = np.float32(quantize_features(input_quant, one)[0, 0])
        self.source_graph = source_graph
        input_dtype = source_graph.input_info.dtype
        self._input_range = (input_dtype.min, input_dtype.max)
        self.num_classes = layers[-1].out_features
        # Integer argmax is exact only when the final affine provably
        # preserves order *and ties*: a uniform power-of-two scale is an
        # exponent shift (no rounding), and a zero bias adds nothing.
        # Any other scale/bias could round distinct accumulators onto
        # one logit value, where float argmax tie-breaking diverges
        # from the integer order.
        scale = self._final_scale.reshape(-1)
        self._int_argmax = bool(
            has_argmax
            and np.all(self._final_bias == 0.0)
            and np.all(scale == scale[0])
            and _is_po2(float(scale[0]))
        )
        self._local = threading.local()

    # -- public API -------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Classify raw feature vectors; returns predicted labels (N,).

        Bit-exact against :meth:`AcceleratorIP.run` (same input
        quantiser, same staircase semantics, same argmax tie-breaking).
        A ``bool`` matrix fills the inputs as ``bits * q1``; any other
        dtype is read as float64 and quantised in the chunk loop — the
        same divide/round/clip sequence as
        :func:`~repro.finn.build.quantize_features`, but through
        preallocated buffers instead of five batch-sized temporaries.
        """
        labels, _ = self._forward(self._raw_features(features), want_logits=False, quantize=True)
        return labels

    def logits(self, features: np.ndarray) -> np.ndarray:
        """De-quantised float64 logits for raw feature vectors (or bits)."""
        _, logits = self._forward(self._raw_features(features), want_logits=True, quantize=True)
        return logits

    def _raw_features(self, features: np.ndarray) -> np.ndarray:
        if self.input_quant is None:
            raise CompileError("engine was compiled without an input quantiser")
        features = np.atleast_2d(np.asarray(features))
        if features.dtype != np.bool_:
            features = features.astype(np.float64, copy=False)
        return features

    def run_quantized(self, x_int: np.ndarray) -> np.ndarray:
        """Classify already-quantised integer inputs (graph input domain).

        Inputs must lie in the graph's declared input range: the
        compiled staircases are clipped to the accumulator bounds
        reachable from that range, so out-of-domain integers would
        silently diverge from the graph — they raise instead.
        """
        x_int = self._check_input_domain(x_int)
        labels, _ = self._forward(x_int, want_logits=False)
        return labels

    def logits_quantized(self, x_int: np.ndarray) -> np.ndarray:
        """Float64 logits for already-quantised integer inputs."""
        x_int = self._check_input_domain(x_int)
        _, logits = self._forward(x_int, want_logits=True)
        return logits

    def _check_input_domain(self, x_int: np.ndarray) -> np.ndarray:
        x_int = np.atleast_2d(np.asarray(x_int, dtype=np.float64))
        low, high = self._input_range
        # NaN compares false on both sides, so non-finite garbage is
        # admitted and follows the graph's IEEE semantics bit-exactly.
        # (min()/max() would return NaN and hide an out-of-domain value
        # in the same batch.)
        if np.any((x_int < low) | (x_int > high)):
            raise ShapeError(
                f"quantised inputs must lie in [{low}, {high}] "
                f"(the graph's {self.source_graph.input_info.dtype} input domain)"
            )
        return x_int

    def summary(self) -> str:
        lines = [
            f"CompiledEngine: {self.input_features} -> "
            + " -> ".join(str(layer.out_features) for layer in self._layers)
            + (" -> argmax" if self.has_argmax else " (logits)")
        ]
        for layer in self._layers:
            kernel = "scale-bias" if layer.steps is None else "shift"
            lines.append(
                f"  {layer.name:<16} {layer.in_features}x{layer.out_features} "
                f"float32 |acc|<={layer.abs_bound} [{kernel}]"
            )
        lines.append(f"  chunk={self.chunk_size}, int-argmax={self._int_argmax}")
        return "\n".join(lines)

    # -- execution --------------------------------------------------------
    def _scratch(self) -> _Scratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch(self._layers, self.chunk_size)
        return scratch

    def _forward(
        self, x: np.ndarray, want_logits: bool, quantize: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        if x.ndim != 2 or x.shape[1] != self.input_features:
            raise ShapeError(
                f"engine expects (N, {self.input_features}) inputs, got {x.shape}"
            )
        n = x.shape[0]
        labels = np.empty(n, dtype=np.int64)
        logits = np.empty((n, self.num_classes), dtype=np.float64) if want_logits else None
        scratch = self._scratch()
        for start in range(0, n, self.chunk_size):
            stop = min(start + self.chunk_size, n)
            self._forward_chunk(x[start:stop], scratch, labels[start:stop],
                                logits[start:stop] if logits is not None else None,
                                quantize)
        return labels, logits

    def _quantize_chunk(self, chunk: np.ndarray, scratch: _Scratch) -> np.ndarray:
        """In-place replay of :func:`quantize_features` on one chunk."""
        if scratch.quant is None:
            scratch.quant = np.empty((self.chunk_size, self.input_features), dtype=np.float64)
        quantized = scratch.quant[: chunk.shape[0]]
        assert self.input_quant is not None  # guarded by the _raw_features() entry check
        np.divide(chunk, self.input_quant.scale, out=quantized)
        quantized += 0.5
        np.floor(quantized, out=quantized)
        np.clip(quantized, self._qmin, self._qmax, out=quantized)
        return quantized

    def _forward_chunk(
        self,
        chunk: np.ndarray,
        scratch: _Scratch,
        labels_out: np.ndarray,
        logits_out: np.ndarray | None,
        quantize: bool = False,
    ) -> None:
        rows = chunk.shape[0]
        x = scratch.acts[0][:rows]
        # Bits carry no NaN; float and integer inputs may.
        finite = chunk.dtype == np.bool_
        if finite:
            np.multiply(chunk, self._q1, out=x[:, :-1])
        else:
            if quantize:
                chunk = self._quantize_chunk(chunk, scratch)
            # Quantised inputs are small integers: the float32 cast is lossless.
            np.copyto(x[:, :-1], chunk, casting="unsafe")
        for layer, buffer in zip(self._layers, scratch.acts[1:]):
            out = buffer[:rows]
            if layer.steps is None:
                np.matmul(x, layer.operand, out=out)
                self._finish(out, labels_out, logits_out)
                return
            x = _shift_layer(x, layer.operand, out, layer.steps, finite)
            finite = True  # counts in [0, steps]

    def _finish(self, acc: np.ndarray, labels_out: np.ndarray, logits_out: np.ndarray | None) -> None:
        if logits_out is None and self._int_argmax:
            np.argmax(acc, axis=1, out=labels_out)
            return
        # Exact float64 replay of ScaleBiasNode: the accumulators are
        # integers below the exactness bound, so the cast is lossless
        # and the affine reproduces the graph's logits bit for bit.
        logits = acc.astype(np.float64) * self._final_scale + self._final_bias
        if logits_out is not None:
            logits_out[:] = logits
        np.argmax(logits, axis=1, out=labels_out)


def _shift_layer(
    x: np.ndarray, operand: np.ndarray, out: np.ndarray, steps: int, finite: bool
) -> np.ndarray:
    """One folded MatMul + MultiThreshold layer, into ``out``.

    ``x`` and ``out`` end in a ones column; ``operand`` is ``[W / D;
    (D - T0) / D]``.  Writes the SGEMM into ``out[:, :C]``, then runs
    ``clip(floor(.), 0, steps)`` over all of ``out`` in place, so
    ``out`` holds the number of thresholds ``T0 + k*D`` at or below each
    accumulator and its ones column stays 1.  Nothing rounds (see the
    module docstring).  ``np.clip`` keeps NaN, so an input that may hold
    NaN (``finite=False``) first takes ``fmax``, which maps it to 0
    steps.  On finite inputs ``clip`` alone takes about half the time
    of ``fmax`` + ``fmin`` (2048x65 float32, 2-core x86 VM).  ``clip``
    may leave a -0.0 where ``fmax`` gave +0.0: equal counts by value.
    """
    np.matmul(x, operand, out=out[:, : operand.shape[1]])
    np.floor(out, out=out)
    if not finite:
        np.fmax(out, 0, out=out)
    np.clip(out, 0, steps, out=out)
    return out


def _shift_plan(thresholds: np.ndarray, abs_bound: int) -> _Staircase:
    """The folded staircase of one layer's (channels, steps) int64 thresholds.

    Every channel's row must be ``T0 + k*D`` with ``D`` a power of two
    (a single threshold has ``D = 1``), judged on the thresholds as the
    graph holds them.  Only ``T0`` is then clipped, into ``[-B -
    (steps-1)*D, B + 1]`` with ``B = abs_bound``: a staircase wholly
    above every reachable accumulator counts 0 there, as one starting at
    ``B + 1`` does; one wholly at or below ``-B`` counts ``steps``, as
    one ending at ``-B`` does; any other is left alone.  So every count
    over ``[-B, B]`` is unchanged, while ``T0 - D`` stays small enough
    that ``(acc - (T0 - D)) / D`` and all its partial sums are exact in
    float32.

    Raises :class:`~repro.errors.CompileError` for uneven spacing,
    spacing below one step, and ``B + max|T0 - D|`` at or above
    ``2**24``.
    """
    channels, steps = thresholds.shape
    if steps == 1:
        spacing = np.ones(channels, dtype=np.int64)
    else:
        gaps = np.diff(thresholds, axis=1)
        spacing = gaps[:, 0]
        if np.any(gaps != spacing[:, None]):
            raise CompileError("thresholds are not evenly spaced")
    if np.any(spacing < 1) or np.any(spacing & (spacing - 1)):
        raise CompileError("threshold spacing is not a power of two >= 1")
    # Above 2**24 the offset bound below fails anyway; checking first
    # keeps (steps - 1) * spacing inside int64.
    if spacing.max(initial=0) > _F32_EXACT:
        raise CompileError(f"threshold spacing {spacing.max()} exceeds the float32 range")
    first = np.clip(thresholds[:, 0], -abs_bound - (steps - 1) * spacing, abs_bound + 1)
    reach = int(np.abs(first - spacing).max(initial=0))
    if abs_bound + reach >= _F32_EXACT:
        raise CompileError(
            f"|acc| <= {abs_bound} against threshold offsets up to {reach} "
            "is not exact in float32"
        )
    return _Staircase(
        (1.0 / spacing).astype(np.float32), ((spacing - first) / spacing).astype(np.float32), steps
    )


def compile_engine(
    graph: DataflowGraph,
    input_quant: "ActQuantExport | None" = None,
    name: str | None = None,
) -> CompiledEngine:
    """Lower a streamlined :class:`DataflowGraph` to a :class:`CompiledEngine`.

    ``input_quant`` is the export's input quantiser
    (:class:`~repro.quant.export.ActQuantExport`), required for
    :meth:`CompiledEngine.predict` on raw features (``run_quantized``
    works without it).  After lowering, 16 random integer inputs, and
    with a quantiser 16 random bit rows, are replayed through both the
    engine and the graph; any mismatch raises
    :class:`~repro.errors.VerificationError`.  A graph the engine cannot
    reproduce exactly (see the module docstring) raises
    :class:`~repro.errors.CompileError`.
    """
    infos = graph.edge_infos()  # validates shapes/dtypes along the way
    layers: list[_LayerPlan] = []
    final_scale: np.ndarray | None = None
    final_bias: np.ndarray | None = None
    has_argmax = False
    current_features = graph.input_info.features
    index = 0
    nodes = graph.nodes
    while index < len(nodes):
        node = nodes[index]
        if isinstance(node, PadNode):
            # Padding appends zero columns; the matmul below slices its
            # weights back to the unpadded width instead.
            index += 1
            continue
        if not isinstance(node, MatMulIntNode):
            raise CompileError(
                f"cannot compile non-streamlined node {type(node).__name__} ({node.name})"
            )
        input_dtype = infos[index].dtype  # edge *into* this node (post-pad)
        weight = node.weight_int[:, :current_features]
        max_abs_in = max(abs(input_dtype.min), abs(input_dtype.max))
        abs_bound = int(np.abs(weight).sum(axis=1).max()) * max_abs_in if weight.size else 0
        if abs_bound >= _F32_EXACT:
            raise CompileError(f"{node.name}: |acc| <= {abs_bound} is not exact in float32")

        follower = nodes[index + 1] if index + 1 < len(nodes) else None
        steps: int | None = None
        if isinstance(follower, MultiThresholdNode):
            try:
                staircase = _shift_plan(follower.thresholds, abs_bound)
            except CompileError as error:
                raise CompileError(f"{follower.name}: {error}") from None
            steps = staircase.steps
            operand = np.vstack([weight.T * staircase.scale, staircase.bias])
            index += 2
        elif isinstance(follower, ScaleBiasNode):
            operand = np.vstack([weight.T, np.zeros((1, weight.shape[0]), dtype=np.float64)])
            final_scale = follower.scale.astype(np.float64)
            final_bias = follower.bias.astype(np.float64)
            index += 2
            if index < len(nodes):
                if not isinstance(nodes[index], ArgMaxNode) or index + 1 != len(nodes):
                    raise CompileError("streamlined graph must end with ScaleBias [+ ArgMax]")
                has_argmax = True
                index += 1
        else:
            raise CompileError(
                f"matmul {node.name} must be followed by MultiThreshold or ScaleBias"
            )
        layers.append(
            _LayerPlan(
                name=node.name,
                operand=np.ascontiguousarray(operand, dtype=np.float32),
                abs_bound=abs_bound,
                steps=steps,
            )
        )
        current_features = layers[-1].out_features

    if not layers or final_scale is None or final_bias is None:
        raise CompileError("graph has no final ScaleBias stage; streamline it first")
    if input_quant is not None:
        qmin, qmax = input_quant_range(input_quant)
        if max(abs(qmin), abs(qmax)) >= _F32_EXACT:
            raise CompileError("input quantiser range exceeds exact engine input domain")

    engine = CompiledEngine(
        layers=layers,
        final_scale=final_scale,
        final_bias=final_bias,
        has_argmax=has_argmax,
        input_features=graph.input_info.features,
        input_quant=input_quant,
        source_graph=graph,
    )
    _self_check(engine, graph, 16, name or graph.name)
    return engine


def _self_check(engine: CompiledEngine, graph: DataflowGraph, samples: int, name: str) -> None:
    """Replay random integer inputs, and random bit rows through the input
    quantiser, through engine and graph; both must agree."""
    dtype = graph.input_info.dtype
    rng = new_rng(0, f"compiled-self-check-{name}")
    x_int = rng.integers(dtype.min, dtype.max + 1, size=(samples, graph.input_info.features))
    _replay(engine, graph, x_int.astype(np.float64), name)
    if engine.input_quant is not None:
        _replay(engine, graph, rng.random(x_int.shape) < 0.5, name)


def _replay(engine: CompiledEngine, graph: DataflowGraph, x: np.ndarray, name: str) -> None:
    """Engine vs graph on one self-check batch: integers, or bits to quantise."""
    bits = x.dtype == np.bool_
    reference = graph.execute(quantize_features(engine.input_quant, x) if bits else x)
    if engine.has_argmax:
        expected = reference.reshape(-1).astype(np.int64)
        got = engine.predict(x) if bits else engine.run_quantized(x)
    else:
        expected = reference
        got = engine.logits(x) if bits else engine.logits_quantized(x)
    if not np.array_equal(expected, got):
        raise VerificationError(
            f"compiled engine for {name!r} diverges from DataflowGraph.execute "
            f"on {len(x)} self-check {'bit rows' if bits else 'samples'}"
        )


# -- engine cache ---------------------------------------------------------
#: id(export) -> engine, anchored on the export's lifetime.
_ENGINES = KeyedWeakCache()
_ENGINES_LOCK = threading.Lock()
_CACHE_HITS = 0
_CACHE_MISSES = 0


@dataclass(frozen=True)
class EngineCacheInfo:
    hits: int
    misses: int
    size: int


def engine_for(ip: "AcceleratorIP") -> CompiledEngine:
    """The (cached) compiled engine of an :class:`~repro.finn.ipgen.AcceleratorIP`.

    Keyed on the IP's export, so every ECU, gateway channel and
    campaign-sweep scenario carrying the same compiled model shares one
    engine.  Thread-safe; scratch state inside the engine is per
    thread.  Raises :class:`~repro.errors.CompileError` (uncached) for
    a graph the engine cannot reproduce exactly.
    """
    global _CACHE_HITS, _CACHE_MISSES
    export, graph = ip.export, ip.graph
    with _ENGINES_LOCK:
        engine = _ENGINES.get(id(export), export)
        # The same export recompiled onto a different graph (e.g. a new
        # pad multiple) must not serve the old lowering.
        if engine is not None and engine.source_graph is graph:
            _CACHE_HITS += 1
            return engine
        _CACHE_MISSES += 1
        engine = compile_engine(graph, input_quant=export.input_quant, name=getattr(ip, "name", None))
        _ENGINES.put(id(export), export, engine)
        return engine


def engine_cache_info() -> EngineCacheInfo:
    """Hit/miss counters of the :func:`engine_for` cache."""
    with _ENGINES_LOCK:
        return EngineCacheInfo(hits=_CACHE_HITS, misses=_CACHE_MISSES, size=len(_ENGINES))


def _is_po2(value: float) -> bool:
    """True for a positive power of two (any exponent, including negative)."""
    if value <= 0:
        return False
    mantissa, _ = np.frexp(value)
    return bool(mantissa == 0.5)
