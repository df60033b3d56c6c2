"""Bit-exactness and caching tests for the compiled inference engine.

The engine (:mod:`repro.finn.compiled`) is the default batch path of
the whole SoC layer, so its contract is absolute: for every streamlined
graph it must reproduce ``DataflowGraph.execute`` bit for bit — across
weight/activation bit widths, both quantiser scale modes, every
threshold kernel, every exact compute dtype and every batch shape
(including batch=1 and the chunked-stream path).  The sweep below
builds synthetic exports directly (no training) so the full width grid
stays cheap; the deployed-model tests ride the shared trained fixture.
"""

import numpy as np
import pytest

from repro.errors import CompileError, VerificationError
from repro.finn.build import build_frontend_graph, quantize_input
from repro.finn.compiled import (
    STEPPED_KERNEL_MAX_STEPS,
    _shift_staircase,
    compile_engine,
    engine_cache_info,
    engine_for,
)
from repro.finn.graph import MultiThresholdNode
from repro.finn.streamline import streamline
from repro.quant.export import ActQuantExport, LayerExport, QNNExport
from repro.soc.accelerator import MemoryMappedAccelerator

#: (in, hidden..., classes) used by the synthetic sweep; the prime-ish
#: input width forces a PadNode (pad_multiple=8), so pad folding is
#: exercised everywhere.
WIDTHS = (10, 9, 5, 3)


def synthetic_export(
    rng: np.random.Generator,
    weight_bits: int,
    act_bits: int,
    scales: str,
    widths=WIDTHS,
    input_bits: int = 6,
) -> QNNExport:
    """A random but structurally valid QNN export (no training needed)."""

    def scale(lo: int = -5, hi: int = 2) -> float:
        if scales == "po2":
            return float(2.0 ** rng.integers(lo, hi))
        return float(rng.uniform(0.02, 0.4))

    wmax = max(2 ** (weight_bits - 1) - 1, 1)
    layers = []
    for position in range(len(widths) - 1):
        in_features, out_features = widths[position], widths[position + 1]
        last = position == len(widths) - 2
        layers.append(
            LayerExport(
                name=f"fc{position}",
                weight_int=rng.integers(-wmax, wmax + 1, (out_features, in_features)).astype(np.int64),
                weight_scale=np.asarray(scale()),
                bias=rng.normal(0.0, 0.5, out_features),
                weight_bits=weight_bits,
                activation=None
                if last
                else ActQuantExport(bit_width=act_bits, signed=False, narrow_range=False, scale=scale(-4, 2)),
            )
        )
    return QNNExport(
        input_quant=ActQuantExport(bit_width=input_bits, signed=False, narrow_range=False, scale=scale()),
        layers=layers,
    )


def random_features(rng: np.random.Generator, export: QNNExport, batch: int) -> np.ndarray:
    """Raw features spanning the quantiser's range, clip regions included."""
    span = export.input_quant.scale * export.input_quant.num_levels
    return rng.uniform(-0.25 * span, 1.25 * span, (batch, export.layers[0].in_features))


class TestBitExactnessSweep:
    """Engine vs graph across the bit-width grid, both scale modes."""

    @pytest.mark.parametrize("scales", ["po2", "float"])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_labels_and_logits_match_graph(self, bits, scales):
        rng = np.random.default_rng(1000 * bits + (scales == "float"))
        export = synthetic_export(rng, weight_bits=bits, act_bits=bits, scales=scales)
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant)
        logits_graph = streamline(build_frontend_graph(export, with_argmax=False))
        logits_engine = compile_engine(logits_graph, input_quant=export.input_quant)

        for batch in (1, 2, 33):
            x_int = quantize_input(export, random_features(rng, export, batch))
            expected = graph.execute(x_int).reshape(-1).astype(np.int64)
            np.testing.assert_array_equal(engine.run_quantized(x_int), expected)
            # Byte for byte, so a -0.0 cannot hide behind value equality.
            assert (
                logits_engine.logits_quantized(x_int).tobytes()
                == logits_graph.execute(x_int).tobytes()
            )

    @pytest.mark.parametrize("kernel", ["auto", "stepped", "searchsorted"])
    def test_both_threshold_kernels_exact(self, kernel):
        rng = np.random.default_rng(7)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant, threshold_kernel=kernel)
        if kernel == "auto":
            assert "shift" in engine.threshold_kernels
        else:
            assert set(engine.threshold_kernels) == {kernel}
        x_int = quantize_input(export, random_features(rng, export, 64))
        np.testing.assert_array_equal(
            engine.run_quantized(x_int), graph.execute(x_int).reshape(-1)
        )

    def test_kernel_auto_crossover(self):
        # Float scales do not space thresholds by powers of two, so no
        # layer takes the shift kernel and the step count decides.
        rng = np.random.default_rng(8)
        narrow = synthetic_export(rng, weight_bits=2, act_bits=4, scales="float")
        wide = synthetic_export(rng, weight_bits=2, act_bits=8, scales="float")
        narrow_engine = compile_engine(streamline(build_frontend_graph(narrow)))
        wide_engine = compile_engine(streamline(build_frontend_graph(wide)))
        assert 2**4 - 1 <= STEPPED_KERNEL_MAX_STEPS < 2**8 - 1
        assert set(narrow_engine.threshold_kernels) == {"stepped"}
        assert set(wide_engine.threshold_kernels) == {"searchsorted"}

        # Power-of-two scales: a layer whose clipped thresholds are
        # T0 + k*D per channel, D a power of two, takes the shift kernel;
        # thresholds clipped at the accumulator bound break the
        # progression and keep the step-count crossover.
        rng = np.random.default_rng(28)
        seen = set()
        for act_bits in (4, 8):
            export = synthetic_export(rng, weight_bits=4, act_bits=act_bits, scales="po2")
            engine = compile_engine(streamline(build_frontend_graph(export)))
            for layer in engine._layers[:-1]:
                gaps = np.diff(layer.thresholds, axis=1)
                spacing = gaps[:, 0]
                progression = np.all(gaps == spacing[:, None]) and np.isin(
                    spacing, 2.0 ** np.arange(32)
                ).all()
                steps = layer.thresholds.shape[1]
                fallback = "stepped" if steps <= STEPPED_KERNEL_MAX_STEPS else "searchsorted"
                assert layer.kernel == ("shift" if progression else fallback), layer.name
                seen.add(layer.kernel)
        assert seen == {"shift", "stepped", "searchsorted"}

    @pytest.mark.parametrize("dtype", ["float64", "int64"])
    def test_wider_compute_dtypes_exact(self, dtype):
        """Force the wider exact paths a small net never needs naturally,
        through the step-counting kernels (float scales) and the shift
        kernel (power-of-two scales)."""
        rng = np.random.default_rng(9)
        for scales in ("float", "po2"):
            export = synthetic_export(rng, weight_bits=4, act_bits=4, scales=scales)
            graph = streamline(build_frontend_graph(export))
            engine = compile_engine(graph, input_quant=export.input_quant, compute_dtype=dtype)
            assert set(engine.compute_dtypes) == {dtype}
            assert ("shift" in engine.threshold_kernels) == (scales == "po2")
            x_int = quantize_input(export, random_features(rng, export, 50))
            np.testing.assert_array_equal(
                engine.run_quantized(x_int), graph.execute(x_int).reshape(-1)
            )
            # A 3-class argmax can mask a wrong hidden activation; logits cannot.
            logits_graph = streamline(build_frontend_graph(export, with_argmax=False))
            logits_engine = compile_engine(
                logits_graph, input_quant=export.input_quant, compute_dtype=dtype
            )
            assert (
                logits_engine.logits_quantized(x_int).tobytes()
                == logits_graph.execute(x_int).tobytes()
            )

    def test_chunked_stream_path_matches_whole_batch(self):
        rng = np.random.default_rng(10)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export))
        whole = compile_engine(graph, input_quant=export.input_quant, chunk_size=4096)
        chunked = compile_engine(graph, input_quant=export.input_quant, chunk_size=7)
        features = random_features(rng, export, 61)  # not a chunk multiple
        np.testing.assert_array_equal(chunked.predict(features), whole.predict(features))
        np.testing.assert_array_equal(
            whole.predict(features), graph.execute(quantize_input(export, features)).reshape(-1)
        )

    @pytest.mark.parametrize("kernel", ["auto", "stepped", "searchsorted"])
    def test_nan_inputs_match_graph(self, kernel):
        """Garbage in, *identical* garbage out: NaN rows follow the
        graph's IEEE semantics (``NaN >= t`` is False -> 0 steps) on
        every threshold kernel."""
        rng = np.random.default_rng(16)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant, threshold_kernel=kernel)
        if kernel == "auto":
            assert "shift" in engine.threshold_kernels
        x_int = quantize_input(export, random_features(rng, export, 8))
        x_int[2, :] = np.nan
        x_int[5, 0] = np.nan
        np.testing.assert_array_equal(
            engine.run_quantized(x_int), graph.execute(x_int).reshape(-1)
        )
        # Labels alone can hide NaN leaking past the first layer (argmax
        # of an all-NaN row is 0), so the logits must match too.
        logits_graph = streamline(build_frontend_graph(export, with_argmax=False))
        logits_engine = compile_engine(
            logits_graph, input_quant=export.input_quant, threshold_kernel=kernel
        )
        assert (
            logits_engine.logits_quantized(x_int).tobytes()
            == logits_graph.execute(x_int).tobytes()
        )

    def test_int64_path_rejects_nan(self):
        """The integer lane cannot cast NaN exactly, so it refuses it
        (the float lanes reproduce the graph's NaN semantics instead)."""
        from repro.errors import ShapeError

        rng = np.random.default_rng(19)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant, compute_dtype="int64")
        x_int = quantize_input(export, random_features(rng, export, 4))
        x_int[1, 0] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            engine.run_quantized(x_int)
        raw = random_features(rng, export, 4)
        raw[2, 1] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            engine.predict(raw)

    def test_canonical_weights_are_compact_integers(self):
        rng = np.random.default_rng(17)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant)
        for weight, width_in, width_out in zip(engine.canonical_weights, WIDTHS, WIDTHS[1:]):
            assert weight.dtype == np.int8  # 4-bit weights pack into int8
            assert weight.shape == (width_out, width_in)  # pads sliced off

    def test_extreme_integer_inputs(self):
        """Quantiser rails (all-min / all-max inputs) stay exact."""
        rng = np.random.default_rng(11)
        export = synthetic_export(rng, weight_bits=8, act_bits=8, scales="float")
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant)
        levels = 2 ** export.input_quant.bit_width - 1
        rails = np.array(
            [np.zeros(WIDTHS[0]), np.full(WIDTHS[0], levels), np.arange(WIDTHS[0]) % (levels + 1)],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(
            engine.run_quantized(rails), graph.execute(rails).reshape(-1)
        )


class TestCompileValidation:
    def test_frontend_graph_rejected(self):
        rng = np.random.default_rng(12)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        with pytest.raises(CompileError, match="streamline"):
            compile_engine(build_frontend_graph(export))

    def test_too_narrow_forced_dtype_rejected(self):
        # 8-bit weights against 16-bit inputs push |acc| past 2**24,
        # so float32 SGEMM can no longer be exact and must be refused.
        rng = np.random.default_rng(13)
        export = synthetic_export(rng, weight_bits=8, act_bits=4, scales="float", input_bits=16)
        graph = streamline(build_frontend_graph(export))
        with pytest.raises(CompileError, match="exactly"):
            compile_engine(graph, compute_dtype="float32")

    def test_out_of_domain_quantized_inputs_rejected(self):
        """Compiled thresholds are clipped to in-range accumulator
        bounds, so out-of-domain integers must raise, not silently
        diverge from the graph."""
        from repro.errors import ShapeError

        rng = np.random.default_rng(18)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant)
        high = graph.input_info.dtype.max
        with pytest.raises(ShapeError, match="input domain"):
            engine.run_quantized(np.full((1, WIDTHS[0]), high + 1, dtype=np.float64))
        with pytest.raises(ShapeError, match="input domain"):
            engine.logits_quantized(np.full((1, WIDTHS[0]), -1.0))

    def test_invalid_options_rejected(self):
        rng = np.random.default_rng(14)
        graph = streamline(
            build_frontend_graph(synthetic_export(rng, 4, 4, "po2"))
        )
        with pytest.raises(CompileError):
            compile_engine(graph, chunk_size=0)
        with pytest.raises(CompileError):
            compile_engine(graph, threshold_kernel="binary")
        with pytest.raises(CompileError):
            compile_engine(graph, compute_dtype="int8")

    def test_self_check_catches_corruption(self):
        rng = np.random.default_rng(15)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export, with_argmax=False))
        engine = compile_engine(graph, input_quant=export.input_quant)
        # Corrupt the *graph* after compilation: the engine's frozen
        # plan (clipped threshold copies) no longer matches, so the
        # self-check that guards every compile must flag the divergence.
        threshold = graph.nodes_of_type(MultiThresholdNode)[0]
        threshold.thresholds[:, :] = threshold.thresholds + 10_000
        with pytest.raises(VerificationError, match="diverges"):
            from repro.finn.compiled import _self_check

            _self_check(engine, graph, samples=32, name="corrupted")


@pytest.fixture(scope="module", params=["dos", "fuzzy"])
def deployed_ip(request, experiment_context):
    """A detector at the deployed W4A4 topology (79->64->64->32->2)."""
    return experiment_context.ip(request.param)


class TestDeployedModel:
    """The acceptance gate: the shipped W4A4 detector, end to end."""

    def test_engine_matches_ip_run(self, dos_ip, rng):
        engine = engine_for(dos_ip)
        features = rng.random((513, dos_ip.export.input_features))
        np.testing.assert_array_equal(engine.predict(features), dos_ip.run(features))

    def test_engine_matches_graph_on_capture_features(self, dos_ip, trained_dos):
        engine = engine_for(dos_ip)
        X = trained_dos.splits.x_test[:2000]
        np.testing.assert_array_equal(engine.predict(X), dos_ip.run(X))

    def test_logits_match(self, dos_ip, rng):
        engine = engine_for(dos_ip)
        features = rng.random((64, dos_ip.export.input_features))
        np.testing.assert_array_equal(engine.logits(features), dos_ip.logits(features))

    def test_run_batch_default_path_is_compiled_and_exact(self, dos_ip, rng):
        accel = MemoryMappedAccelerator(dos_ip)
        features = rng.random((256, dos_ip.export.input_features))
        np.testing.assert_array_equal(
            accel.run_batch(features), accel.run_batch(features, compiled=False)
        )

    def test_engine_cached_per_export(self, dos_ip):
        before = engine_cache_info()
        first = engine_for(dos_ip)
        second = engine_for(dos_ip)
        third = MemoryMappedAccelerator(dos_ip), engine_for(dos_ip)
        assert first is second is third[1]
        after = engine_cache_info()
        assert after.hits >= before.hits + 2
        assert after.size >= 1

    def test_summary_describes_pipeline(self, dos_ip):
        text = engine_for(dos_ip).summary()
        assert "CompiledEngine" in text and "chunk=" in text

    def test_deployed_thresholds_compile_to_shift(self, deployed_ip):
        engine = engine_for(deployed_ip)
        assert engine.threshold_kernels == ["shift", "shift", "shift"]
        assert engine.summary().count("[shift]") == 3

    def test_shift_layers_match_stepped_definition(self, deployed_ip):
        """Every reachable integer accumulator, and NaN, through each
        shift layer counts exactly the graph's thresholds at or below it."""
        engine = engine_for(deployed_ip)
        nodes = deployed_ip.graph.nodes_of_type(MultiThresholdNode)
        layers = [layer for layer in engine._layers if layer.thresholds is not None]
        for node, layer in zip(nodes, layers, strict=True):
            assert layer.kernel == "shift"
            column = np.append(np.arange(-layer.abs_bound, layer.abs_bound + 1), np.nan)
            acc = np.repeat(column[:, None], layer.out_features, axis=1).astype(layer.compute_dtype)
            expected = np.zeros(acc.shape, dtype=np.uint8)
            for step in range(node.steps):
                expected += acc >= node.thresholds[:, step]
            np.testing.assert_array_equal(_shift_staircase(acc, layer), expected)
