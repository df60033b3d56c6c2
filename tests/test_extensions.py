"""Tests for the extension features: mixed captures."""

import numpy as np
import pytest

from repro.datasets.carhacking import generate_mixed_capture
from repro.datasets.features import BitFeatureEncoder
from repro.errors import DatasetError
from repro.training.metrics import ids_metrics
from repro.training.trainer import Trainer


class TestMixedCapture:
    @pytest.fixture(scope="class")
    def mixed(self):
        return generate_mixed_capture(
            ("dos", "fuzzy"), duration=4.0, seed=1234,
            attack_burst=0.8, attack_gap=0.6, initial_gap=0.3,
        )

    def test_both_attack_types_present(self, mixed):
        attack_ids = {r.can_id for r in mixed.records if r.is_attack}
        assert 0x000 in attack_ids  # DoS bursts
        assert len(attack_ids) > 50  # fuzzy bursts randomise ids

    def test_windows_alternate_attackers(self, mixed):
        """Every window contains exactly one attack mechanism."""
        for index, (start, end) in enumerate(mixed.attack_windows):
            ids = {
                r.can_id
                for r in mixed.records
                if r.is_attack and start <= r.timestamp <= end
            }
            if not ids:
                continue
            if index % 2 == 0:  # dos windows
                assert ids == {0x000}
            else:  # fuzzy windows
                assert ids != {0x000}

    def test_attack_label(self, mixed):
        assert mixed.attack == "dos+fuzzy"

    def test_validation(self):
        with pytest.raises(DatasetError):
            generate_mixed_capture(("dos", "nope"), duration=1.0)
        with pytest.raises(DatasetError):
            generate_mixed_capture((), duration=1.0)

    def test_comprehensive_ids_coverage(self, mixed, trained_dos, trained_fuzzy):
        """Paper's 'comprehensive IDS': OR of both detectors covers both attacks."""
        features, labels = BitFeatureEncoder().encode(mixed.records)
        dos_pred = Trainer.predict(trained_dos.model, features)
        fuzzy_pred = Trainer.predict(trained_fuzzy.model, features)
        combined = np.maximum(dos_pred, fuzzy_pred)
        metrics = ids_metrics(labels, combined)
        assert metrics["recall"] > 95.0
        # Each single detector misses the other attack's bursts.
        dos_only = ids_metrics(labels, dos_pred)
        assert dos_only["recall"] < metrics["recall"]
