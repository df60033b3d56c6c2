"""Tests for build, streamline, folding, hw mapping, cyclesim, verify, ipgen."""

import numpy as np
import pytest

from repro.errors import CompileError, ResourceError, VerificationError
from repro.finn.build import build_frontend_graph, quantize_input
from repro.finn.cyclesim import CycleSimulator
from repro.finn.folding import FoldingConfig, divisors, fold_for_target
from repro.finn.graph import MatMulIntNode, MultiThresholdNode, PadNode
from repro.finn.hls_layers import MVAU, to_hw_pipeline
from repro.finn.ipgen import RegisterMap, compile_model
from repro.finn.resources import ResourceEstimate, weight_storage
from repro.finn.streamline import streamline
from repro.finn.verify import verify_bit_exact
from repro.quant.export import export_qnn


@pytest.fixture(scope="module")
def export(trained_dos_module):
    return export_qnn(trained_dos_module.model)


@pytest.fixture(scope="module")
def trained_dos_module(request):
    return request.getfixturevalue("trained_dos")


class TestFrontend:
    def test_frontend_matches_export(self, export, rng):
        graph = build_frontend_graph(export, with_argmax=False)
        x = rng.random((64, export.input_features))
        np.testing.assert_array_equal(
            graph.execute(quantize_input(export, x)), export.execute_float(x)
        )

    def test_argmax_head(self, export, rng):
        graph = build_frontend_graph(export, with_argmax=True)
        x = rng.random((16, export.input_features))
        labels = graph.execute(quantize_input(export, x)).reshape(-1)
        expected = export.execute_float(x).argmax(axis=1)
        np.testing.assert_array_equal(labels, expected)

    def test_quantize_input_integral(self, export, rng):
        x_int = quantize_input(export, rng.random((8, export.input_features)))
        np.testing.assert_array_equal(x_int, np.round(x_int))
        assert x_int.min() >= 0


class TestStreamline:
    def test_streamlined_matches_frontend(self, export, rng):
        frontend = build_frontend_graph(export)
        hw = streamline(frontend)
        x_int = quantize_input(export, rng.random((64, export.input_features)))
        np.testing.assert_array_equal(hw.execute(x_int), frontend.execute(x_int))

    def test_threshold_nodes_created(self, export):
        hw = streamline(build_frontend_graph(export))
        thresholds = hw.nodes_of_type(MultiThresholdNode)
        assert len(thresholds) == len(export.layers) - 1

    def test_padding_inserted_for_prime_width(self, export):
        hw = streamline(build_frontend_graph(export), pad_multiple=8)
        pads = hw.nodes_of_type(PadNode)
        assert len(pads) == 1  # 79 -> 80
        first_matmul = hw.nodes_of_type(MatMulIntNode)[0]
        assert first_matmul.in_features == 80
        assert first_matmul.weight_int[:, 79:].sum() == 0  # zero columns

    def test_no_padding_when_multiple_is_one(self, export):
        hw = streamline(build_frontend_graph(export), pad_multiple=1)
        assert not hw.nodes_of_type(PadNode)

    def test_verify_streamlined_bit_exact(self, export, rng):
        hw = streamline(build_frontend_graph(export))
        report = verify_bit_exact(export, hw, rng.random((128, export.input_features)))
        assert report.exact
        assert report.label_agreement == 1.0


class TestFolding:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(79) == [1, 79]

    def test_divisors_validates(self):
        with pytest.raises(CompileError):
            divisors(0)

    def test_fold_meets_budget(self, export):
        hw = streamline(build_frontend_graph(export))
        folding = fold_for_target(hw, target_fps=1e6, clock_hz=100e6)
        matmuls = hw.nodes_of_type(MatMulIntNode)
        assert folding.max_cycles(matmuls) <= 100

    def test_tighter_target_needs_more_lanes(self, export):
        hw = streamlined = streamline(build_frontend_graph(export))
        slow = fold_for_target(hw, target_fps=1e4, clock_hz=100e6)
        fast = fold_for_target(hw, target_fps=1e6, clock_hz=100e6)
        cost = lambda f: sum(p * s for p, s in zip(f.pe, f.simd))
        assert cost(fast) > cost(slow)

    def test_max_parallel_single_cycle(self, export):
        # One frame per clock is only met by the fully parallel folding.
        hw = streamline(build_frontend_graph(export))
        folding = fold_for_target(hw, target_fps=100e6, clock_hz=100e6)
        assert folding.max_cycles(hw.nodes_of_type(MatMulIntNode)) == 1

    def test_impossible_target_raises(self, export):
        hw = streamline(build_frontend_graph(export))
        with pytest.raises(ResourceError):
            fold_for_target(hw, target_fps=2e8, clock_hz=100e6)

    def test_invalid_folding_rejected(self, export):
        hw = streamline(build_frontend_graph(export))
        matmuls = hw.nodes_of_type(MatMulIntNode)
        bad = FoldingConfig(pe=[3] * len(matmuls), simd=[7] * len(matmuls))
        with pytest.raises(CompileError):
            bad.cycles(matmuls)


class TestMVAU:
    def test_cycles_formula(self):
        mvau = MVAU("m", 64, 32, pe=4, simd=8, weight_bits=4, input_bits=4, acc_bits=16, act_bits=4, threshold_steps=15)
        assert mvau.initiation_interval == (32 // 4) * (64 // 8)

    def test_divisibility_enforced(self):
        with pytest.raises(CompileError):
            MVAU("m", 64, 30, pe=4, simd=8, weight_bits=4, input_bits=4, acc_bits=16, act_bits=4)

    def test_resources_scale_with_lanes(self):
        small = MVAU("s", 64, 32, 2, 4, 4, 4, 16, 4, 15).resources()
        big = MVAU("b", 64, 32, 8, 16, 4, 4, 16, 4, 15).resources()
        assert big.lut > small.lut

    def test_dsp_for_wide_operands(self):
        wide = MVAU("w", 64, 32, 4, 4, 8, 8, 20, 8, 255)
        assert wide.resources().dsp == 16

    def test_lut_for_narrow_operands(self):
        narrow = MVAU("n", 64, 32, 4, 4, 4, 4, 16, 4, 15)
        assert narrow.resources().dsp == 0

    def test_weight_storage_mapping(self):
        lutram, bram = weight_storage(1024)
        assert lutram > 0 and bram == 0
        lutram, bram = weight_storage(200_000)
        assert lutram == 0 and bram > 0


class TestHWPipelineAndSim:
    def test_pipeline_structure(self, export):
        hw = streamline(build_frontend_graph(export))
        folding = fold_for_target(hw, 1e6, 100e6)
        pipeline = to_hw_pipeline(hw, folding)
        mvaus = [s for s in pipeline.stages if isinstance(s, MVAU)]
        assert len(mvaus) == len(export.layers)
        assert len(pipeline.fifos) == len(pipeline.stages) - 1

    def test_ii_is_max_stage(self, export):
        hw = streamline(build_frontend_graph(export))
        pipeline = to_hw_pipeline(hw, fold_for_target(hw, 1e6, 100e6))
        assert pipeline.initiation_interval == max(s.initiation_interval for s in pipeline.stages)

    def test_sim_latency_close_to_static(self, export):
        hw = streamline(build_frontend_graph(export))
        pipeline = to_hw_pipeline(hw, fold_for_target(hw, 1e6, 100e6))
        report = CycleSimulator(pipeline, 100e6).simulate(20)
        assert report.latency_cycles <= pipeline.latency_cycles
        assert report.latency_cycles >= sum(s.latency_cycles for s in pipeline.stages) - len(pipeline.fifos) - 1

    def test_steady_state_throughput(self, export):
        hw = streamline(build_frontend_graph(export))
        pipeline = to_hw_pipeline(hw, fold_for_target(hw, 1e6, 100e6))
        report = CycleSimulator(pipeline, 100e6).simulate(200)
        # Back-to-back samples: total time ~= N * II (+ pipeline fill).
        assert report.total_cycles == pytest.approx(200 * report.steady_ii, rel=0.1)

    def test_spaced_arrivals_respected(self, export):
        hw = streamline(build_frontend_graph(export))
        pipeline = to_hw_pipeline(hw, fold_for_target(hw, 1e6, 100e6))
        arrivals = np.arange(10) * 10_000  # one every 100 us at 100 MHz
        report = CycleSimulator(pipeline, 100e6).simulate(10, arrival_cycles=arrivals)
        assert report.total_cycles >= arrivals[-1]

    def test_fifo_sizing(self, export):
        hw = streamline(build_frontend_graph(export))
        pipeline = to_hw_pipeline(hw, fold_for_target(hw, 1e6, 100e6))
        sim = CycleSimulator(pipeline, 100e6)
        sim.size_fifos()
        assert all(f.depth >= 2 for f in pipeline.fifos)


class TestCompileModel:
    def test_compile_verifies(self, dos_ip):
        assert dos_ip.verification is not None
        assert dos_ip.verification.exact

    def test_run_matches_trainer_predictions(self, dos_ip, trained_dos):
        from repro.training.trainer import Trainer

        X = trained_dos.splits.x_test[:500]
        np.testing.assert_array_equal(dos_ip.run(X), Trainer.predict(trained_dos.model, X))

    def test_logits_match_model(self, dos_ip, trained_dos, rng):
        from repro.autograd.tensor import Tensor

        X = rng.random((32, 79))
        trained_dos.model.eval()
        np.testing.assert_array_equal(dos_ip.logits(X), trained_dos.model(Tensor(X)).data)

    def test_throughput_meets_target(self, dos_ip):
        assert dos_ip.throughput_fps >= dos_ip.metadata["target_fps"]

    def test_latency_microseconds_scale(self, dos_ip):
        assert dos_ip.latency_seconds < 50e-6  # hw core is us-scale

    def test_register_map(self, dos_ip):
        rm = dos_ip.register_map
        assert rm.input_words == (79 * 8 + 31) // 32
        assert rm.span >= rm.INPUT_BASE + 4 * rm.input_words

    def test_register_map_for_input(self):
        rm = RegisterMap.for_input(4, 1)
        assert rm.input_words == 1

    def test_to_dict(self, dos_ip):
        import json

        assert json.dumps(dos_ip.to_dict())

    def test_summary_text(self, dos_ip):
        text = dos_ip.summary()
        assert "folding" in text and "resources" in text


class TestVerifyFailure:
    def test_corrupted_graph_detected(self, trained_dos, rng):
        export = export_qnn(trained_dos.model)
        hw = streamline(build_frontend_graph(export))
        matmul = hw.nodes_of_type(MatMulIntNode)[0]
        matmul.weight_int[0, 0] += 64  # corrupt one weight hard
        with pytest.raises(VerificationError):
            verify_bit_exact(export, hw, rng.random((64, export.input_features)))
