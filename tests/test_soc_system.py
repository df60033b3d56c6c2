"""Tests for the accelerator wrapper, latency/power models, ECU, overlay."""

import numpy as np
import pytest

from repro.datasets.features import BitFeatureEncoder
from repro.errors import ConfigError, SoCError
from repro.soc.accelerator import MemoryMappedAccelerator
from repro.soc.axi import AXILiteBus
from repro.soc.driver import Overlay
from repro.soc.ecu import IDSEnabledECU
from repro.soc.latency import DEFAULT_SEGMENTS, LatencyModel
from repro.soc.platforms import A6000, PLATFORMS, ZYNQ_ULTRASCALE
from repro.soc.power import PMBusSampler, PowerModel, energy_per_inference


class TestMemoryMappedAccelerator:
    def test_infer_matches_functional(self, dos_ip, trained_dos):
        accel = MemoryMappedAccelerator(dos_ip)
        features = trained_dos.splits.x_test[0]
        label, trace = accel.infer(features)
        assert label == int(dos_ip.run(features[None, :])[0])

    def test_trace_accounts_transactions(self, dos_ip):
        accel = MemoryMappedAccelerator(dos_ip)
        _, trace = accel.infer(np.zeros(79))
        assert trace.mmio_writes == dos_ip.register_map.input_words + 1  # inputs + start
        assert trace.mmio_reads >= 2  # polls + result
        assert trace.total_seconds > trace.compute_seconds

    def test_trace_is_data_independent(self, dos_ip, rng):
        accel = MemoryMappedAccelerator(dos_ip)
        _, t1 = accel.infer(rng.random(79))
        _, t2 = accel.infer(rng.random(79))
        assert t1.total_seconds == pytest.approx(t2.total_seconds, rel=1e-9)

    def test_batch_infer_rejected(self, dos_ip):
        accel = MemoryMappedAccelerator(dos_ip)
        with pytest.raises(SoCError):
            accel.infer(np.zeros((2, 79)))

    def test_shared_bus_two_ips(self, dos_ip):
        bus = AXILiteBus()
        a = MemoryMappedAccelerator(dos_ip, bus=bus, base_address=0xA000_0000)
        b = MemoryMappedAccelerator(dos_ip, bus=bus, base_address=0xA001_0000)
        a.infer(np.zeros(79))
        b.infer(np.zeros(79))
        assert bus.transactions > 2 * dos_ip.register_map.input_words


class TestLatencyModel:
    def test_nominal_near_paper(self, dos_ip):
        trace = MemoryMappedAccelerator(dos_ip).reference_trace()
        breakdown = LatencyModel().end_to_end(trace)
        assert 0.08e-3 < breakdown.total_seconds < 0.15e-3  # ~0.12 ms envelope

    def test_dominant_segment_is_software(self, dos_ip):
        trace = MemoryMappedAccelerator(dos_ip).reference_trace()
        breakdown = LatencyModel().end_to_end(trace)
        assert breakdown.dominant() == "can_rx_path"

    def test_segments_sum(self, dos_ip):
        trace = MemoryMappedAccelerator(dos_ip).reference_trace()
        breakdown = LatencyModel().end_to_end(trace)
        assert breakdown.total_seconds == pytest.approx(sum(breakdown.segments.values()))

    def test_jitter_right_skewed(self, dos_ip, rng):
        trace = MemoryMappedAccelerator(dos_ip).reference_trace()
        model = LatencyModel()
        draws = model.sample(trace, 5000, rng)
        nominal = model.end_to_end(trace).total_seconds
        assert np.percentile(draws, 99) > nominal
        assert draws.min() > 0.5 * nominal

    def test_sample_count_validated(self, dos_ip, rng):
        trace = MemoryMappedAccelerator(dos_ip).reference_trace()
        with pytest.raises(SoCError):
            LatencyModel().sample(trace, 0, rng)

    def test_throughput_inverse_of_latency(self, dos_ip):
        trace = MemoryMappedAccelerator(dos_ip).reference_trace()
        model = LatencyModel()
        assert model.throughput_fps(trace) == pytest.approx(
            1.0 / model.end_to_end(trace).total_seconds
        )

    def test_default_segments_documented(self):
        assert set(DEFAULT_SEGMENTS) == {
            "can_rx_path", "task_dispatch", "fifo_copy", "feature_encode", "decision",
        }


class TestPowerModel:
    def test_calibrated_operating_point(self, dos_ip):
        power = PowerModel().total_w(dos_ip.resources, dos_ip.clock_hz)
        assert 1.9 < power < 2.2  # the paper's 2.09 W envelope

    def test_dynamic_power_scales_with_design(self, dos_ip):
        model = PowerModel()
        one = model.total_w(dos_ip.resources, dos_ip.clock_hz, instances=1)
        two = model.total_w(dos_ip.resources, dos_ip.clock_hz, instances=2)
        assert two > one
        assert two - one == pytest.approx(model.pl_dynamic_w(dos_ip.resources, dos_ip.clock_hz))

    def test_dynamic_power_scales_with_clock(self, dos_ip):
        model = PowerModel()
        assert model.pl_dynamic_w(dos_ip.resources, 200e6) == pytest.approx(
            2 * model.pl_dynamic_w(dos_ip.resources, 100e6)
        )

    def test_energy_per_inference_matches_paper_formula(self):
        assert energy_per_inference(2.09, 0.12e-3) == pytest.approx(0.2508e-3)

    def test_energy_validation(self):
        with pytest.raises(SoCError):
            energy_per_inference(0.0, 1.0)

    def test_pmbus_measurement_noise(self, dos_ip, rng):
        sampler = PMBusSampler()
        report = sampler.measure(1.0, rng, resources=dos_ip.resources, clock_hz=dos_ip.clock_hz)
        truth = PowerModel().total_w(dos_ip.resources, dos_ip.clock_hz)
        assert report.mean_w == pytest.approx(truth, rel=0.02)
        assert report.std_w > 0
        assert report.num_samples == 200

    def test_pmbus_duration_validated(self, rng):
        with pytest.raises(SoCError):
            PMBusSampler().measure(0.0, rng)


class TestPlatforms:
    def test_a6000_energy_is_papers(self):
        assert A6000.energy_per_inference() == pytest.approx(9.12)

    def test_zynq_energy_is_papers(self):
        assert ZYNQ_ULTRASCALE.energy_per_inference() == pytest.approx(0.25e-3, rel=0.01)

    def test_energy_requires_latency(self):
        from repro.soc.platforms import GTX_TITAN_X

        with pytest.raises(ConfigError):
            GTX_TITAN_X.energy_per_inference()
        assert GTX_TITAN_X.energy_per_inference(0.275) == pytest.approx(0.275 * 250)

    def test_registry_covers_table2_platforms(self):
        names = {p.name for p in PLATFORMS.values()}
        for expected in ("Jetson Xavier NX", "Tesla K80", "Raspberry Pi 3"):
            assert expected in names


class TestECU:
    def test_process_capture_report(self, dos_ip, dos_capture):
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        report = ecu.process_capture(dos_capture.records[:2000])
        assert report.num_frames == 2000
        assert report.metrics["f1"] > 99.0
        assert 0.05e-3 < report.mean_latency_s < 0.2e-3
        assert 1.9 < report.mean_power_w < 2.3
        assert report.energy_per_inference_j < 1e-3

    def test_alerts_are_attack_indices(self, dos_ip, dos_capture):
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        report = ecu.process_capture(dos_capture.records[:2000])
        assert set(report.alerts) == set(np.flatnonzero(report.predictions == 1).tolist())

    def test_empty_capture_rejected(self, dos_ip):
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder())
        with pytest.raises(SoCError):
            ecu.process_capture([])

    def test_summary_text(self, dos_ip, dos_capture):
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        report = ecu.process_capture(dos_capture.records[:500])
        text = report.summary()
        assert "latency" in text and "energy" in text


class TestOverlay:
    def test_ip_lookup_and_classify(self, dos_ip, dos_capture):
        overlay = Overlay({"dos_ids": dos_ip})
        features = BitFeatureEncoder().encode_frame(dos_capture.records[0])
        assert overlay.dos_ids.classify(features) in (0, 1)

    def test_ip_dict_metadata(self, dos_ip):
        overlay = Overlay({"dos_ids": dos_ip})
        meta = overlay.ip_dict["dos_ids"]
        assert meta["type"] == "finn-ids-accelerator"
        assert meta["phys_addr"] == 0xA000_0000

    def test_unknown_ip_attribute(self, dos_ip):
        overlay = Overlay({"dos_ids": dos_ip})
        with pytest.raises(AttributeError):
            overlay.fuzzy_ids

    def test_invalid_name_rejected(self, dos_ip):
        with pytest.raises(SoCError):
            Overlay({"not an identifier": dos_ip})

    def test_empty_overlay_rejected(self):
        with pytest.raises(SoCError):
            Overlay({})

    def test_two_ips_distinct_addresses(self, dos_ip):
        overlay = Overlay({"a": dos_ip, "b": dos_ip})
        assert overlay.ip_dict["a"]["phys_addr"] != overlay.ip_dict["b"]["phys_addr"]
