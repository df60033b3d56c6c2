"""End-to-end integration tests: the full paper pipeline in miniature.

These tests chain every subsystem: bus simulation -> capture -> QAT
training -> FINN compilation -> bit-exact verification -> SoC
deployment -> paper-style measurements.
"""

import numpy as np
import pytest

from repro.datasets.carhacking import CarHackingCapture, generate_capture
from repro.datasets.features import BitFeatureEncoder
from repro.finn.ipgen import compile_model
from repro.models.qmlp import QMLPConfig
from repro.soc.device import ZCU104
from repro.soc.driver import Overlay
from repro.soc.ecu import IDSEnabledECU
from repro.training.pipeline import train_ids_model
from repro.training.trainer import TrainConfig, Trainer
from tests.test_finn_compiled import synthetic_export


class TestFullPipeline:
    def test_train_compile_deploy_detect(self, trained_dos, dos_ip, dos_capture):
        """The complete DoS path reproduces the paper's claims in miniature."""
        # 1. Accuracy (Table I shape): near-perfect DoS detection.
        assert trained_dos.metrics["f1"] > 99.0
        # 2. Hardware bit-exactness: IP == trained model on the test set.
        X = trained_dos.splits.x_test
        np.testing.assert_array_equal(dos_ip.run(X), Trainer.predict(trained_dos.model, X))
        # 3. Resources (<4% claim).
        assert ZCU104.max_utilization(dos_ip.resources) < 4.0
        # 4. Deployment: ECU on fresh traffic.
        fresh = generate_capture(
            "dos", duration=1.5, seed=777, initial_gap=0.2, attack_burst=1.0, attack_gap=0.5
        )
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=1)
        report = ecu.process_capture(fresh.records)
        assert report.metrics["f1"] > 98.0
        assert report.mean_latency_s < 0.2e-3
        assert report.energy_per_inference_j < 0.5e-3

    def test_generalisation_across_seeds(self, dos_ip):
        """The detector trained on seed A detects attacks from seed B traffic."""
        other = generate_capture(
            "dos", duration=1.5, seed=4242, initial_gap=0.2, attack_burst=1.0, attack_gap=0.5
        )
        features, labels = BitFeatureEncoder().encode(other.records)
        predictions = dos_ip.run(features)
        from repro.training.metrics import ids_metrics

        assert ids_metrics(labels, predictions)["f1"] > 98.0

    def test_csv_roundtrip_through_training(self, tmp_path):
        """Captures persisted in the dataset CSV schema train identically."""
        capture = generate_capture(
            "dos", duration=1.5, seed=99, initial_gap=0.2, attack_burst=1.0, attack_gap=0.5
        )
        path = capture.save_csv(tmp_path / "dos.csv")
        loaded = CarHackingCapture.load_csv(path, attack="dos")
        config = QMLPConfig(hidden=(16,), seed=1)
        a = train_ids_model("dos", model_config=config, capture=capture,
                            train_config=TrainConfig(epochs=4, seed=2), seed=5)
        b = train_ids_model("dos", model_config=config, capture=loaded,
                            train_config=TrainConfig(epochs=4, seed=2), seed=5)
        # Timestamps differ at microsecond rounding but features do not.
        assert a.metrics == b.metrics

    def test_multi_ids_overlay_end_to_end(self, trained_dos, trained_fuzzy):
        """Fig. 1 deployment: both detectors co-resident, both functional."""
        dos_ip = compile_model(trained_dos.model, name="dos-core", verify=False)
        fuzzy_ip = compile_model(trained_fuzzy.model, name="fuzzy-core", verify=False)
        combined = dos_ip.resources + fuzzy_ip.resources
        assert ZCU104.max_utilization(combined) < 10.0
        overlay = Overlay({"dos_ids": dos_ip, "fuzzy_ids": fuzzy_ip})
        encoder = BitFeatureEncoder()
        fuzzy_records = generate_capture(
            "fuzzy", duration=1.0, seed=55, initial_gap=0.1, attack_burst=0.8, attack_gap=0.5
        ).records
        features, labels = encoder.encode(fuzzy_records)
        predictions = overlay.fuzzy_ids.classify_batch(features)
        from repro.training.metrics import ids_metrics

        assert ids_metrics(labels, predictions)["recall"] > 90.0

    def test_bitwidth_affects_resources_not_exactness(self, dos_capture):
        """Any bit width compiles bit-exactly; resources grow with bits."""
        luts = {}
        for bits in (2, 8):
            result = train_ids_model(
                "dos",
                model_config=QMLPConfig(hidden=(16,), weight_bits=bits, act_bits=bits, seed=3),
                train_config=TrainConfig(epochs=3, seed=3),
                capture=dos_capture,
                seed=13,
            )
            ip = compile_model(result.model, name=f"ids-{bits}bit")
            assert ip.verification.exact
            luts[bits] = ip.resources.lut
        assert luts[8] > luts[2]

    def test_float_scale_mode_compiles_with_tolerance(self):
        """Non-po2 scales verify within tolerance instead of exactly.

        In-repo training only produces power-of-two scales, so the export
        comes from outside the training path, as ``compile_model`` allows.
        """
        export = synthetic_export(
            np.random.default_rng(3), weight_bits=4, act_bits=4, scales="float", widths=(79, 16, 2)
        )
        ip = compile_model(export, name="float-scale-ids")
        assert ip.verification is not None
        assert ip.verification.label_agreement == 1.0
