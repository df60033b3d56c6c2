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
* **Integer weights, exact operands.**  Weights are held as ``int8``
  (the hardware's view).  For the matmul itself the engine picks, per
  layer, the cheapest *provably exact* operand type from the layer's
  worst-case accumulator magnitude ``B = max_c sum_k |w[c, k]| *
  max|x|``: ``float32`` SGEMM when ``B < 2**24`` (every partial sum is
  an integer below the mantissa limit, so BLAS is exact — and ~15x
  faster than numpy's integer matmul), ``float64`` DGEMM below
  ``2**53``, and a true ``int64`` matmul beyond that.
* **Shift-and-clamp thresholds.**  Power-of-two quantiser scales give
  every deployed detector's MultiThreshold layers per-channel
  thresholds ``T0 + k*D`` with ``D`` a power of two, so the staircase
  is ``clamp(floor((acc - (T0 - D)) / D), 0, steps)``: five in-place
  passes over the accumulators, whatever the step count, instead of
  the dense ``>=``-broadcast.  Other layers count steps with a
  stepped-compare kernel (one vectorised ``>=`` pass per step,
  accumulated into a uint8 buffer) up to ``STEPPED_KERNEL_MAX_STEPS``
  steps, and with per-channel :func:`np.searchsorted` — O(log steps)
  per value — above; that crossover was measured.  All three kernels
  are bit-exact.
* **Preallocated chunk buffers.**  Batches stream through fixed
  per-layer scratch buffers (thread-local, so one engine can serve
  several gateway channels or campaign-sweep workers concurrently)
  instead of allocating a tensor per node per batch.
* **Integer argmax.**  The classification head runs on the integer
  accumulators directly whenever the final de-quantisation provably
  preserves order and ties (uniform power-of-two scale, zero bias);
  otherwise the exact float64 affine of :class:`ScaleBiasNode` is
  applied to the (tiny) logit matrix first.

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
from repro.finn.build import input_quant_range
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

#: Threshold-step count at or below which a layer the shift kernel
#: cannot take uses the stepped-compare kernel instead of per-channel
#: searchsorted.  Measured crossover: the stepped kernel's T sequential
#: passes beat binary search up to a few dozen steps (4-bit activations'
#: 15 steps sit well inside), while 6-bit+ activations (63+ steps) want
#: the O(log T) path.
STEPPED_KERNEL_MAX_STEPS = 32

#: Largest integer magnitude float32 SGEMM reproduces exactly.
_F32_EXACT = 2**24
#: Largest integer magnitude float64 DGEMM reproduces exactly.
_F64_EXACT = 2**53
#: Per compute lane, the integer magnitude the shift kernel's
#: intermediates must stay below (int64: no overflow).
_SHIFT_EXACT = {"float32": _F32_EXACT, "float64": _F64_EXACT, "int64": 2**63}

_COMPUTE_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "int64": np.int64,
}


@dataclass(frozen=True)
class _LayerPlan:
    """One fused MatMul(+MultiThreshold) stage of the engine."""

    name: str
    weight_i8: np.ndarray  #: canonical (out, in) int8 weights (int16 if >8 bits)
    operand: np.ndarray  #: (in, out) contiguous matmul operand, compute dtype
    thresholds: np.ndarray | None  #: (out, steps) ascending, compute dtype
    kernel: str  #: "shift" | "stepped" | "searchsorted" | "" (final layer)
    compute_dtype: np.dtype
    count_dtype: np.dtype  #: uint8/uint16 activation-count accumulator
    abs_bound: int  #: worst-case |accumulator| (drives dtype choice)
    #: "shift" kernel only: per-channel offsets ``T0 - D`` and factors
    #: ``1/D`` (``D`` itself on the int64 lane), compute dtype.
    shift: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def in_features(self) -> int:
        return int(self.operand.shape[0])

    @property
    def out_features(self) -> int:
        return int(self.operand.shape[1])


class _Scratch:
    """Per-thread preallocated chunk buffers for one engine."""

    def __init__(self, layers: list[_LayerPlan], rows: int) -> None:
        self.rows = rows
        self.quant = np.empty((rows, layers[0].in_features), dtype=np.float64)
        self.inputs = [np.empty((rows, layer.in_features), dtype=layer.compute_dtype) for layer in layers]
        self.accs = [np.empty((rows, layer.out_features), dtype=layer.compute_dtype) for layer in layers]
        # The shift kernel rewrites its accumulators in place, so only
        # the step-counting kernels need flag/count buffers.
        self.bools = [
            np.empty((rows, layer.out_features), dtype=bool) if layer.kernel == "stepped" else None
            for layer in layers
        ]
        self.counts = [
            np.empty((rows, layer.out_features), dtype=layer.count_dtype)
            if layer.kernel in ("stepped", "searchsorted")
            else None
            for layer in layers
        ]


def _exact_dtype_for(abs_bound: int, steps_bound: int) -> np.dtype:
    """Cheapest operand dtype that reproduces integer arithmetic exactly.

    ``abs_bound`` bounds every partial sum of the matmul (BLAS may
    reorder the reduction arbitrarily; any subset of products is still
    bounded by the sum of absolute products), and ``steps_bound`` the
    clipped threshold magnitudes compared against the accumulators.
    """
    bound = max(abs_bound, steps_bound)
    if bound < _F32_EXACT - 1:
        return np.dtype(np.float32)
    if bound < _F64_EXACT - 1:
        return np.dtype(np.float64)
    if bound < 2**62:
        return np.dtype(np.int64)
    raise CompileError(f"accumulator bound {bound} exceeds exact int64 arithmetic")


class CompiledEngine:
    """A streamlined dataflow graph fused into flat batch kernels.

    Instances are built by :func:`compile_engine` (or fetched from the
    :func:`engine_for` cache) and are immutable after compilation;
    scratch buffers are thread-local, so one engine may be shared by
    concurrent sessions.
    """

    def __init__(
        self,
        layers: list[_LayerPlan],
        final_scale: np.ndarray,
        final_bias: np.ndarray,
        has_argmax: bool,
        input_features: int,
        input_quant: "ActQuantExport | None",
        chunk_size: int,
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
        self.chunk_size = int(chunk_size)
        self.source_graph = source_graph
        input_dtype = source_graph.input_info.dtype
        self._input_range = (input_dtype.min, input_dtype.max)
        # Float compute lanes reproduce the graph's IEEE NaN semantics
        # bit-exactly (see the threshold kernels); an int64 lane cannot
        # (the NaN->int cast is unspecified), so non-finite inputs are
        # rejected up front when any layer computes in integers.
        self._rejects_nan = any(layer.compute_dtype.kind != "f" for layer in layers)
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
            and scale[0] > 0
            and _is_po2(float(scale[0]))
        )
        self._local = threading.local()

    # -- public API -------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self._layers)

    @property
    def compute_dtypes(self) -> list[str]:
        """Per-layer matmul operand dtype (exactness-driven)."""
        return [str(layer.compute_dtype) for layer in self._layers]

    @property
    def threshold_kernels(self) -> list[str]:
        return [layer.kernel for layer in self._layers if layer.thresholds is not None]

    @property
    def canonical_weights(self) -> list[np.ndarray]:
        """Per-layer integer weight matrices, hardware view (int8/int16).

        The matmul operands are derived, wider casts of these; this is
        the compact form a deployment would ship to the device.
        """
        return [layer.weight_i8 for layer in self._layers]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Classify raw feature vectors; returns predicted labels (N,).

        Bit-exact against :meth:`AcceleratorIP.run` (same input
        quantiser, same staircase semantics, same argmax tie-breaking).
        Input quantisation is fused into the chunk loop — the same
        divide/round/clip sequence as
        :func:`~repro.finn.build.quantize_features`, but through
        preallocated buffers instead of five batch-sized temporaries.
        """
        if self.input_quant is None:
            raise CompileError("engine was compiled without an input quantiser")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        labels, _ = self._forward(features, want_logits=False, quantize=True)
        return labels

    def logits(self, features: np.ndarray) -> np.ndarray:
        """De-quantised float64 logits for raw feature vectors."""
        if self.input_quant is None:
            raise CompileError("engine was compiled without an input quantiser")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        _, logits = self._forward(features, want_logits=True, quantize=True)
        return logits

    def run_quantized(self, x_int: np.ndarray) -> np.ndarray:
        """Classify already-quantised integer inputs (graph input domain).

        Inputs must lie in the graph's declared input range: the
        compiled threshold tables are clipped to the accumulator bounds
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
        if x_int.size:
            low, high = self._input_range
            # NaN compares false on both sides: on the float compute
            # lanes non-finite garbage is admitted and handled
            # bit-exactly (see the NaN kernels); an integer lane cannot
            # reproduce NaN propagation and refuses it instead.
            if x_int.min() < low or x_int.max() > high:
                raise ShapeError(
                    f"quantised inputs must lie in [{low}, {high}] "
                    f"(the graph's {self.source_graph.input_info.dtype} input domain)"
                )
            self._check_finite(x_int)
        return x_int

    def _check_finite(self, values: np.ndarray) -> None:
        if self._rejects_nan and np.isnan(values).any():
            raise ShapeError(
                "non-finite inputs are not supported on the int64 compute path "
                "(NaN cannot be cast to integers bit-exactly)"
            )

    def summary(self) -> str:
        lines = [
            f"CompiledEngine: {self.input_features} -> "
            + " -> ".join(str(layer.out_features) for layer in self._layers)
            + (" -> argmax" if self.has_argmax else " (logits)")
        ]
        for layer in self._layers:
            kernel = layer.kernel or "scale-bias"
            lines.append(
                f"  {layer.name:<16} {layer.in_features}x{layer.out_features} "
                f"{layer.compute_dtype} |acc|<={layer.abs_bound} [{kernel}]"
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
        rows = chunk.shape[0]
        quantized = scratch.quant[:rows]
        assert self.input_quant is not None  # guarded by the predict() entry check
        np.divide(chunk, self.input_quant.scale, out=quantized)
        quantized += 0.5
        np.floor(quantized, out=quantized)
        np.clip(quantized, self._qmin, self._qmax, out=quantized)
        if self._rejects_nan:
            self._check_finite(quantized)  # clip passes NaN through
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
        if quantize:
            chunk = self._quantize_chunk(chunk, scratch)
        values: np.ndarray | None = None  # previous layer's activation counts
        for index, layer in enumerate(self._layers):
            x = scratch.inputs[index][:rows]
            # Quantised inputs / activation counts are small integers;
            # the cast into the layer's exact operand dtype is lossless.
            np.copyto(x, values if values is not None else chunk, casting="unsafe")
            acc = scratch.accs[index][:rows]
            np.matmul(x, layer.operand, out=acc)
            if layer.thresholds is None:
                self._finish(acc, labels_out, logits_out)
                return
            if layer.kernel == "shift":
                values = _shift_staircase(acc, layer)
                continue
            counts = scratch.counts[index][:rows]
            if layer.kernel == "stepped":
                flags = scratch.bools[index][:rows]
                counts[:] = 0
                for step in range(layer.thresholds.shape[1]):
                    np.greater_equal(acc, layer.thresholds[:, step], out=flags)
                    counts += flags
            else:  # searchsorted: count of thresholds <= acc, per channel
                for channel in range(layer.out_features):
                    counts[:, channel] = np.searchsorted(
                        layer.thresholds[channel], acc[:, channel], side="right"
                    )
                if layer.compute_dtype.kind == "f":
                    # searchsorted sorts NaN above every threshold; the
                    # graph's `>=` broadcast (and the stepped kernel)
                    # yield 0 steps for NaN accumulators.  Keep garbage
                    # inputs bit-exact too.
                    invalid = np.isnan(acc)
                    if invalid.any():
                        counts[invalid] = 0
            values = counts

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


def _shift_staircase(acc: np.ndarray, layer: _LayerPlan) -> np.ndarray:
    """Apply a ``"shift"`` MultiThreshold layer to ``acc`` in place.

    Returns ``acc`` holding ``clamp(floor((acc - (T0 - D)) / D), 0,
    steps)``: the number of thresholds ``T0 + k*D`` at or below each
    accumulator.  :func:`_shift_plan` admitted the layer only if every
    intermediate is an integer below the lane's exact limit, and ``1/D``
    is a power of two, so no step rounds.  ``fmax`` maps NaN to 0 steps
    (``NaN >= t`` is False in the graph, as in the stepped kernel) and
    -0.0 to +0.0.  ``np.floor_divide`` gives the same counts on float
    lanes but measured ~15x slower (2.0 vs 0.13 µs per 64-channel
    float32 row), so it only serves the int64 lane.
    """
    assert layer.shift is not None and layer.thresholds is not None  # kernel == "shift"
    offset, factor = layer.shift
    steps = layer.thresholds.shape[1]
    np.subtract(acc, offset, out=acc)
    if acc.dtype.kind == "f":
        np.multiply(acc, factor, out=acc)
        np.floor(acc, out=acc)
        np.fmax(acc, 0, out=acc)
        np.fmin(acc, steps, out=acc)
    else:
        np.floor_divide(acc, factor, out=acc)
        np.clip(acc, 0, steps, out=acc)
    return acc


def _shift_plan(
    thresholds: np.ndarray, abs_bound: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray] | None:
    """The shift kernel's per-channel ``(T0 - D, 1/D)``, or None if it cannot apply.

    ``thresholds`` are one layer's clipped int64 thresholds.  The
    kernel applies when every channel's row is ``T0 + k*D`` with ``D`` a
    power of two (a single threshold has ``D = 1``) and ``abs_bound +
    max|T0 - D|`` is below the ``dtype`` lane's exact-integer limit.
    On the int64 lane the factor is ``D`` itself (floor-divided).
    """
    channels, steps = thresholds.shape
    if steps == 1:
        spacing = np.ones(channels, dtype=np.int64)
    else:
        gaps = np.diff(thresholds, axis=1)
        spacing = gaps[:, 0]
        if np.any(gaps != spacing[:, None]):
            return None
    if np.any(spacing < 1) or np.any(spacing & (spacing - 1)):
        return None
    # Python ints: near the int64 lane's bound, T0 - D can overflow int64.
    offsets = [first - gap for first, gap in zip(thresholds[:, 0].tolist(), spacing.tolist())]
    if abs_bound + max(map(abs, offsets), default=0) >= _SHIFT_EXACT[dtype.name]:
        return None
    factor = spacing if dtype.kind != "f" else 1.0 / spacing
    return np.asarray(offsets, dtype=dtype), factor.astype(dtype)


def compile_engine(
    graph: DataflowGraph,
    input_quant: "ActQuantExport | None" = None,
    chunk_size: int = 2048,
    threshold_kernel: str = "auto",
    compute_dtype: str | None = None,
    self_check_samples: int = 16,
    name: str | None = None,
) -> CompiledEngine:
    """Lower a streamlined :class:`DataflowGraph` to a :class:`CompiledEngine`.

    Parameters
    ----------
    input_quant:
        The export's input quantiser (:class:`~repro.quant.export.ActQuantExport`);
        required for :meth:`CompiledEngine.predict` on raw features
        (``run_quantized`` works without it).
    chunk_size:
        Rows per internal chunk.  2048 keeps every per-layer buffer in
        cache (measured ~20% faster than 8192 on the canonical net).
    threshold_kernel:
        ``"auto"`` (default) picks per MultiThreshold layer: ``shift``
        when every channel's clipped thresholds are ``T0 + k*D`` with
        ``D`` a power of two (``D = 1`` for a single threshold) and
        ``|acc| + max|T0 - D|`` stays below the compute lane's exact
        limit (2**24 float32, 2**53 float64); otherwise ``stepped`` up
        to :data:`STEPPED_KERNEL_MAX_STEPS` steps and ``searchsorted``
        above.  ``"stepped"`` / ``"searchsorted"`` force that reference
        kernel on every layer (A/B).
    compute_dtype:
        Override the per-layer operand dtype (``"float32"``,
        ``"float64"`` or ``"int64"``).  Rejected when the requested
        type cannot represent the layer's accumulators exactly —
        exactness is never negotiable.
    self_check_samples:
        Random integer inputs replayed through both the engine and the
        graph after compilation; any mismatch raises
        :class:`~repro.errors.VerificationError`.  0 disables.
    """
    if chunk_size < 1:
        raise CompileError(f"chunk_size must be >= 1, got {chunk_size}")
    if threshold_kernel not in ("auto", "stepped", "searchsorted"):
        raise CompileError(f"unknown threshold kernel {threshold_kernel!r}")
    if compute_dtype is not None and compute_dtype not in _COMPUTE_DTYPES:
        raise CompileError(
            f"compute_dtype must be one of {sorted(_COMPUTE_DTYPES)}, got {compute_dtype!r}"
        )

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

        follower = nodes[index + 1] if index + 1 < len(nodes) else None
        if isinstance(follower, MultiThresholdNode):
            # Thresholds outside the reachable accumulator range never
            # change the staircase; clipping them in keeps every value
            # below the exactness bound of narrow float dtypes.
            thresholds_int = np.clip(follower.thresholds, -abs_bound - 1, abs_bound + 1)
            steps = int(follower.steps)
            steps_bound = abs_bound + 1
            count_dtype = np.dtype(np.uint8 if steps <= 255 else np.uint16)
            index += 2
        elif isinstance(follower, ScaleBiasNode):
            thresholds_int = None
            steps_bound = 0
            count_dtype = np.dtype(np.uint8)
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

        if compute_dtype is not None:
            dtype = np.dtype(_COMPUTE_DTYPES[compute_dtype])
            exact = _exact_dtype_for(abs_bound, steps_bound)
            # A requested dtype is only legal when at least as wide as
            # the exactness analysis demands (int64 is always exact).
            widths = {"float32": 0, "float64": 1, "int64": 2}
            if widths[dtype.name] < widths[exact.name]:
                raise CompileError(
                    f"{node.name}: compute_dtype {compute_dtype} cannot hold "
                    f"|acc| <= {abs_bound} exactly (needs {exact.name})"
                )
        else:
            dtype = _exact_dtype_for(abs_bound, steps_bound)

        kernel = "" if thresholds_int is None else threshold_kernel
        shift: tuple[np.ndarray, np.ndarray] | None = None
        if thresholds_int is not None and kernel == "auto":
            shift = _shift_plan(thresholds_int, abs_bound, dtype)
            if shift is not None:
                kernel = "shift"
            elif thresholds_int.shape[1] <= STEPPED_KERNEL_MAX_STEPS:
                kernel = "stepped"
            else:
                kernel = "searchsorted"

        weight_store = np.int8 if int(np.abs(weight).max(initial=0)) <= 127 else np.int16
        layers.append(
            _LayerPlan(
                name=node.name,
                weight_i8=weight.astype(weight_store),
                operand=np.ascontiguousarray(weight.T, dtype=dtype),
                thresholds=None if thresholds_int is None else thresholds_int.astype(dtype),
                kernel=kernel,
                compute_dtype=dtype,
                count_dtype=count_dtype,
                abs_bound=abs_bound,
                shift=shift,
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
        chunk_size=chunk_size,
        source_graph=graph,
    )
    if self_check_samples:
        _self_check(engine, graph, self_check_samples, name or graph.name)
    return engine


def _self_check(engine: CompiledEngine, graph: DataflowGraph, samples: int, name: str) -> None:
    """Replay random integer inputs through engine and graph; must agree."""
    dtype = graph.input_info.dtype
    rng = new_rng(0, f"compiled-self-check-{name}")
    x_int = rng.integers(dtype.min, dtype.max + 1, size=(samples, graph.input_info.features))
    x_int = x_int.astype(np.float64)
    reference = graph.execute(x_int)
    if engine.has_argmax:
        expected = reference.reshape(-1).astype(np.int64)
        got = engine.run_quantized(x_int)
    else:
        expected = reference
        got = engine.logits_quantized(x_int)
    if not np.array_equal(expected, got):
        raise VerificationError(
            f"compiled engine for {name!r} diverges from DataflowGraph.execute "
            f"on {samples} self-check samples"
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
    thread.
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
    if value <= 0:
        return False
    mantissa, _ = np.frexp(value)
    return mantissa == 0.5
