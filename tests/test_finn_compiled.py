"""Exactness and caching tests for the compiled inference engine.

The engine (:mod:`repro.finn.compiled`) is the default batch path of
the whole SoC layer, so its contract is absolute: for every streamlined
graph it either reproduces ``DataflowGraph.execute`` bit for bit —
across weight/activation bit widths and every batch shape (including
batch=1 and more than one internal chunk) — or refuses to compile with
:class:`CompileError`, and ``MemoryMappedAccelerator.run_batch`` then
serves the graph itself.  The sweep below builds synthetic exports
directly (no training) so the full width grid stays cheap; the
deployed-model tests ride the shared trained fixtures.
"""

import numpy as np
import pytest

from repro.can.log import CANLogRecord, CaptureArray
from repro.datasets.features import BitFeatureEncoder
from repro.errors import CompileError, ShapeError, VerificationError
from repro.finn.build import build_frontend_graph, quantize_input
from repro.finn.compiled import (
    _self_check,
    _shift_layer,
    _shift_plan,
    compile_engine,
    engine_cache_info,
    engine_for,
)
from repro.finn.graph import MatMulIntNode, MultiThresholdNode
from repro.finn.ipgen import compile_model
from repro.finn.streamline import streamline
from repro.models.qmlp import QMLPConfig
from repro.quant.export import ActQuantExport, LayerExport, QNNExport
from repro.soc.accelerator import MemoryMappedAccelerator
from repro.soc.ecu import IDSEnabledECU
from repro.training.pipeline import train_ids_model
from repro.training.trainer import TrainConfig

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


def probe_inputs(rng: np.random.Generator, export: QNNExport) -> list[np.ndarray]:
    """Quantised probes: batches of 1, 2 and 33, the rails, and NaN rows."""
    width = export.layers[0].in_features
    levels = 2 ** export.input_quant.bit_width - 1
    rails = np.array(
        [np.zeros(width), np.full(width, levels), np.arange(width) % (levels + 1)],
        dtype=np.float64,
    )
    nan_rows = quantize_input(export, random_features(rng, export, 8))
    nan_rows[2, :] = np.nan
    nan_rows[5, 0] = np.nan
    batches = [quantize_input(export, random_features(rng, export, n)) for n in (1, 2, 33)]
    return batches + [rails, nan_rows]


BATCHES = (0, 1, 2, 33, 4097)  # 4097 rows cross two 2048-row chunk boundaries


def random_bits(rng: np.random.Generator, export: QNNExport, batch: int) -> np.ndarray:
    return rng.random((batch, export.layers[0].in_features)) < 0.5


def assert_counts_exact(thresholds: np.ndarray, staircase, abs_bound: int) -> None:
    """Every integer accumulator in ``[-B, B]`` counts exactly the
    thresholds at or below it through the folded kernel, on both routes,
    and NaN counts 0 on the route that may carry it (chunked, so wide
    layers stay small).  The accumulator is the one input of a probe
    layer whose operand is the fold ``[1/D; (D - T0)/D]``."""
    channels = len(thresholds)
    probe = np.vstack([staircase.scale, staircase.bias])
    column = np.append(np.arange(-abs_bound, abs_bound + 1, dtype=np.float64), np.nan)
    for start in range(0, column.size, 1 << 14):
        part = column[start : start + (1 << 14)]
        expected = np.stack([np.searchsorted(row, part, side="right") for row in thresholds], axis=1)
        expected[np.isnan(part)] = 0  # NaN >= t is False for every t
        x = np.ones((part.size, 2), dtype=np.float32)
        x[:, 0] = part
        for finite, rows in ((False, slice(None)), (True, ~np.isnan(part))):
            out = np.ones((x[rows].shape[0], channels + 1), dtype=np.float32)
            _shift_layer(x[rows], probe, out, staircase.steps, finite)
            np.testing.assert_array_equal(out[:, :-1], expected[rows])
            assert np.all(out[:, -1] == 1.0)  # the ones column survives


class TestBitExactnessSweep:
    """Engine vs graph across the bit-width grid: exact or refused."""

    @pytest.mark.parametrize("scales", ["po2", "float"])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_labels_and_logits_match_graph(self, bits, scales):
        rng = np.random.default_rng(1000 * bits + (scales == "float"))
        export = synthetic_export(rng, weight_bits=bits, act_bits=bits, scales=scales)
        graph = streamline(build_frontend_graph(export))
        logits_graph = streamline(build_frontend_graph(export, with_argmax=False))
        try:
            engine = compile_engine(graph, input_quant=export.input_quant)
        except CompileError:
            # Power-of-two scales are refused too when an activation step
            # is finer than an accumulator step (here W7A7: D = 1/2).
            with pytest.raises(CompileError):
                compile_engine(logits_graph, input_quant=export.input_quant)
        else:
            # Float scales space thresholds unevenly; 1-bit activations
            # have one threshold per channel, so there is nothing to space.
            assert scales == "po2" or bits == 1
            logits_engine = compile_engine(logits_graph, input_quant=export.input_quant)
            for x_int in probe_inputs(rng, export):
                expected = graph.execute(x_int).reshape(-1).astype(np.int64)
                np.testing.assert_array_equal(engine.run_quantized(x_int), expected)
                # Byte for byte, so a -0.0 cannot hide behind value equality.
                assert (
                    logits_engine.logits_quantized(x_int).tobytes()
                    == logits_graph.execute(x_int).tobytes()
                )
            # Bit matrices take the bool fill: exact against the graph on
            # their quantised values.
            for batch in BATCHES:
                bits = random_bits(rng, export, batch)
                x_int = quantize_input(export, bits)
                np.testing.assert_array_equal(
                    engine.predict(bits), graph.execute(x_int).reshape(-1).astype(np.int64)
                )
                assert logits_engine.logits(bits).tobytes() == logits_graph.execute(x_int).tobytes()
        # Compiled or refused, the accelerator's default path is the IP's.
        ip = compile_model(export, name=f"sweep-w{bits}-{scales}")
        features = random_features(rng, export, 40)
        np.testing.assert_array_equal(MemoryMappedAccelerator(ip).run_batch(features), ip.run(features))

    def test_float_scale_ip_streams_through_graph(self, dos_capture):
        """A refused IP still serves the ECU receive path, via the graph."""
        rng = np.random.default_rng(20)
        export = synthetic_export(rng, 4, 4, "float", widths=(BitFeatureEncoder.num_features, 16, 8, 2))
        ip = compile_model(export, name="float-scale-ecu")
        with pytest.raises(CompileError):
            engine_for(ip)
        capture = dos_capture.capture[:3000]
        report = IDSEnabledECU(ip, BitFeatureEncoder(), name="float-ecu").process_stream(capture)
        expected = ip.run(BitFeatureEncoder().encode_batch(capture))
        np.testing.assert_array_equal(report.predictions, expected[report.kept_indices])

    def test_chunked_stream_path_matches_whole_batch(self):
        rng = np.random.default_rng(10)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant)
        features = random_features(rng, export, 2 * engine.chunk_size + 61)  # not a chunk multiple
        labels = engine.predict(features)
        np.testing.assert_array_equal(labels, graph.execute(quantize_input(export, features)).reshape(-1))
        np.testing.assert_array_equal(
            np.concatenate([engine.predict(part) for part in np.array_split(features, 9)]), labels
        )

    def test_nan_inputs_match_graph(self):
        """Garbage in, *identical* garbage out: NaN rows follow the
        graph's IEEE semantics (``NaN >= t`` is False -> 0 steps)."""
        rng = np.random.default_rng(16)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export))
        engine = compile_engine(graph, input_quant=export.input_quant)
        x_int = quantize_input(export, random_features(rng, export, 8))
        x_int[2, :] = np.nan
        x_int[5, 0] = np.nan
        np.testing.assert_array_equal(
            engine.run_quantized(x_int), graph.execute(x_int).reshape(-1)
        )
        # Labels alone can hide NaN leaking past the first layer (argmax
        # of an all-NaN row is 0), so the logits must match too.
        logits_graph = streamline(build_frontend_graph(export, with_argmax=False))
        logits_engine = compile_engine(logits_graph, input_quant=export.input_quant)
        assert (
            logits_engine.logits_quantized(x_int).tobytes()
            == logits_graph.execute(x_int).tobytes()
        )

    def test_extreme_integer_inputs(self, dos_ip):
        """Quantiser rails (all-min / all-max inputs) stay exact."""
        engine = engine_for(dos_ip)
        graph = dos_ip.graph
        low, high = graph.input_info.dtype.min, graph.input_info.dtype.max
        width = graph.input_info.features
        rails = np.array(
            [np.full(width, low), np.full(width, high), low + np.arange(width) % (high - low + 1)],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(
            engine.run_quantized(rails), graph.execute(rails).reshape(-1)
        )


class TestShiftPlan:
    """The shift kernel against the staircase's definition, directly."""

    @pytest.mark.parametrize("steps", [1, 3, 15, 255])
    def test_every_reachable_count_exact(self, steps):
        """Random ``T0 + k*D`` rows, ``D`` a power of two: a third of the
        channels sit wholly above ``B``, a third wholly below ``-B``, the
        rest anywhere around ``[-B, B]``."""
        rng = np.random.default_rng(steps)
        for abs_bound in (0, 1, 37, 2000):
            channels = 12
            spacing = 2 ** rng.integers(0, 6, channels)
            span = (steps - 1) * spacing
            first = rng.integers(-abs_bound - span - 40, abs_bound + 41)
            first[:4] = abs_bound + 1 + rng.integers(0, 50, 4)  # wholly above B
            first[4:8] = -abs_bound - 1 - span[4:8] - rng.integers(0, 50, 4)  # wholly below -B
            thresholds = first[:, None] + spacing[:, None] * np.arange(steps)
            assert_counts_exact(thresholds, _shift_plan(thresholds, abs_bound), abs_bound)

    @pytest.mark.parametrize(
        "thresholds, abs_bound, match",
        [
            ([[0, 2, 3]], 10, "evenly spaced"),
            ([[0, 3, 6]], 10, "power of two"),
            ([[4, 4, 4]], 10, "power of two"),  # spacing below one step
            ([[0, 2**25]], 10, "float32"),
            ([[-(2**23), 0]], 2**23, "float32"),  # acc - (T0 - D) reaches 3 * 2**23
        ],
        ids=["uneven", "not-po2", "zero-spacing", "huge-spacing", "offset-past-2**24"],
    )
    def test_refusals(self, thresholds, abs_bound, match):
        with pytest.raises(CompileError, match=match):
            _shift_plan(np.asarray(thresholds, dtype=np.int64), abs_bound)


class TestCompileValidation:
    def test_frontend_graph_rejected(self):
        rng = np.random.default_rng(12)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        with pytest.raises(CompileError, match="streamline"):
            compile_engine(build_frontend_graph(export))

    def test_too_narrow_forced_dtype_rejected(self):
        # 8-bit weights against 16-bit inputs push |acc| past 2**24, so
        # float32 SGEMM can no longer be exact and must be refused; the
        # accelerator then serves the graph.
        rng = np.random.default_rng(13)
        export = synthetic_export(rng, weight_bits=8, act_bits=4, scales="po2", input_bits=16)
        graph = streamline(build_frontend_graph(export))
        with pytest.raises(CompileError, match="float32"):
            compile_engine(graph)
        ip = compile_model(export, name="wide-acc")
        features = random_features(rng, export, 16)
        np.testing.assert_array_equal(MemoryMappedAccelerator(ip).run_batch(features), ip.run(features))

    def test_out_of_domain_quantized_inputs_rejected(self, dos_ip):
        """Compiled staircases are clipped to in-range accumulator
        bounds, so out-of-domain integers must raise, not silently
        diverge from the graph."""
        engine = engine_for(dos_ip)
        info = dos_ip.graph.input_info
        with pytest.raises(ShapeError, match="input domain"):
            engine.run_quantized(np.full((1, info.features), info.dtype.max + 1.0))
        with pytest.raises(ShapeError, match="input domain"):
            engine.logits_quantized(np.full((1, info.features), info.dtype.min - 1.0))
        # A NaN row must not hide an out-of-domain row in the same batch.
        mixed = np.full((2, info.features), float(info.dtype.min))
        mixed[0, :] = np.nan
        mixed[1, 3] = info.dtype.max + 1.0
        with pytest.raises(ShapeError, match="input domain"):
            engine.run_quantized(mixed)

    def test_bool_matrix_of_wrong_width_rejected(self, dos_ip):
        engine = engine_for(dos_ip)
        width = dos_ip.export.input_features
        for shape in ((4, width - 1), (4, width + 1)):
            with pytest.raises(ShapeError, match="inputs"):
                engine.predict(np.zeros(shape, dtype=bool))

    def test_invalid_options_rejected(self):
        """An input quantiser wider than float32's exact integers is refused."""
        rng = np.random.default_rng(14)
        graph = streamline(build_frontend_graph(synthetic_export(rng, 4, 4, "po2")))
        wide = ActQuantExport(bit_width=25, signed=False, narrow_range=False, scale=1.0)
        with pytest.raises(CompileError, match="input quantiser"):
            compile_engine(graph, input_quant=wide)

    def test_self_check_catches_corruption(self):
        rng = np.random.default_rng(15)
        export = synthetic_export(rng, weight_bits=4, act_bits=4, scales="po2")
        graph = streamline(build_frontend_graph(export, with_argmax=False))
        engine = compile_engine(graph, input_quant=export.input_quant)
        # Corrupt the *graph* after compilation: the engine's frozen
        # plan (its own staircase offsets) no longer matches, so the
        # self-check that guards every compile must flag the divergence.
        threshold = graph.nodes_of_type(MultiThresholdNode)[0]
        threshold.thresholds[:, :] = threshold.thresholds + 10_000
        with pytest.raises(VerificationError, match="diverges"):
            _self_check(engine, graph, samples=32, name="corrupted")


@pytest.fixture(scope="module", params=["dos", "fuzzy"])
def deployed_ip(request, experiment_context):
    """A detector at the deployed W4A4 topology (79->64->64->32->2)."""
    return experiment_context.ip(request.param)


@pytest.fixture(scope="module", params=[2, 3, 4, 6, 8])
def width_ip(request, dos_capture):
    """A small trained DoS detector at W{bits}A{bits} (79->32->16->2)."""
    bits = request.param
    result = train_ids_model(
        "dos",
        model_config=QMLPConfig(hidden=(32, 16), weight_bits=bits, act_bits=bits, seed=7),
        train_config=TrainConfig(epochs=6, seed=3),
        capture=dos_capture,
        seed=11,
    )
    return compile_model(result.model, name=f"test-w{bits}-ip")


def assert_staircases_exact(ip) -> int:
    """Check every shift layer of ``ip``'s engine against its graph nodes:
    its operand is the fold of the matmul's weights and the thresholds'
    staircase, and that staircase counts exactly.  Returns how many
    layers a clip of all thresholds into ``[-B - 1, B + 1]`` would knock
    off their ``T0 + k*D`` progression."""
    engine = engine_for(ip)
    nodes = ip.graph.nodes_of_type(MultiThresholdNode)
    matmuls = ip.graph.nodes_of_type(MatMulIntNode)[:-1]
    layers = engine._layers[:-1]
    clipped_off = 0
    for node, matmul, layer in zip(nodes, matmuls, layers, strict=True):
        staircase = _shift_plan(node.thresholds, layer.abs_bound)
        assert layer.steps == staircase.steps == node.thresholds.shape[1]
        weight = matmul.weight_int[:, : layer.in_features]
        folded = np.vstack([weight.T * staircase.scale, staircase.bias]).astype(np.float32)
        assert layer.operand.tobytes() == folded.tobytes()
        assert_counts_exact(node.thresholds, staircase, layer.abs_bound)
        clipped = np.clip(node.thresholds, -layer.abs_bound - 1, layer.abs_bound + 1)
        gaps = np.diff(clipped, axis=1)
        clipped_off += bool(np.any(gaps != gaps[:, :1]) or np.any(gaps == 0))
    return clipped_off


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
        np.testing.assert_array_equal(accel.run_batch(features), accel.ip.run(features))

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
        assert [layer.steps is not None for layer in engine._layers] == [True] * 3 + [False]
        assert engine.summary().count("[shift]") == 3

    def test_bit_capture_matches_float_and_graph(self, deployed_ip):
        """The encoder's bits straight in: equal to the float route and
        to the IP, on a capture that sets every id bit, every DLC 0-8,
        and all-0x00 and all-0xFF payloads, at every batch size."""
        records = [
            CANLogRecord(0.0, can_id, dlc, bytes([fill] * dlc), "R")
            for can_id in (0x000, 0x7FF, 0x555, 0x2AA) + tuple(1 << k for k in range(11))
            for dlc in range(9)
            for fill in (0x00, 0xFF)
        ]
        bits = BitFeatureEncoder().encode_batch(CaptureArray.from_records(records))
        assert bits.dtype == np.bool_
        assert bits[:, :11].any(axis=0).all() and bits[:, 15:].any(axis=0).all()
        engine = engine_for(deployed_ip)
        tiled = np.resize(bits, (max(BATCHES), bits.shape[1]))
        for batch in BATCHES:
            part = tiled[:batch]
            labels = engine.predict(part)
            np.testing.assert_array_equal(labels, engine.predict(part.astype(np.float64)))
            np.testing.assert_array_equal(labels, deployed_ip.run(part))
        np.testing.assert_array_equal(
            engine.logits(tiled[:64]), engine.logits(tiled[:64].astype(np.float64))
        )

    def test_shift_layers_match_stepped_definition(self, deployed_ip):
        """Every reachable integer accumulator, and NaN, through each
        shift layer counts exactly the graph's thresholds at or below it."""
        assert_staircases_exact(deployed_ip)

    def test_trained_width_staircases_match_definition(self, width_ip):
        """The same check on trained W2-W8 nets.  The W2 net has a layer
        whose thresholds, clipped wholesale to the accumulator range,
        would leave their progression; only ``T0`` is clipped now."""
        clipped_off = assert_staircases_exact(width_ip)
        if width_ip.export.layers[0].weight_bits == 2:
            assert clipped_off >= 1
