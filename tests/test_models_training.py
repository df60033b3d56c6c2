"""Tests for model builders, metrics and the trainer."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.errors import ConfigError, TrainingError
from repro.models.qmlp import QMLPConfig, build_qmlp
from repro.quant.layers import QuantLinear
from repro.training.metrics import ConfusionMatrix, confusion_matrix, ids_metrics
from repro.training.pipeline import train_ids_model
from repro.training.trainer import TrainConfig, Trainer


class TestQMLPConfig:
    def test_topology(self):
        config = QMLPConfig(input_features=79, hidden=(64, 64, 32))
        assert config.topology == [79, 64, 64, 32, 2]

    def test_num_weights(self):
        config = QMLPConfig(input_features=4, hidden=(3,))
        assert config.num_weights == 4 * 3 + 3 * 2

    def test_describe(self):
        assert QMLPConfig().describe() == "W4A4 79-64-64-32-2"

    def test_validation(self):
        with pytest.raises(ConfigError):
            QMLPConfig(hidden=())
        with pytest.raises(ConfigError):
            QMLPConfig(weight_bits=0)

    def test_build_structure(self):
        model = build_qmlp(QMLPConfig(hidden=(16, 8)))
        quant_linears = [m for m in model if isinstance(m, QuantLinear)]
        assert [l.out_features for l in quant_linears] == [16, 8, 2]

    def test_build_deterministic(self, rng):
        x = rng.random((4, 79))
        a = build_qmlp(QMLPConfig(seed=5))(Tensor(x)).data
        b = build_qmlp(QMLPConfig(seed=5))(Tensor(x)).data
        np.testing.assert_array_equal(a, b)


class TestMetrics:
    def test_perfect(self):
        m = ids_metrics(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]))
        assert m["precision"] == 100.0 and m["recall"] == 100.0 and m["fnr"] == 0.0

    def test_known_confusion(self):
        y_true = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        y_pred = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0])
        cm = confusion_matrix(y_true, y_pred)
        assert (cm.true_positive, cm.false_negative, cm.false_positive, cm.true_negative) == (3, 1, 1, 5)
        assert cm.precision == pytest.approx(0.75)
        assert cm.recall == pytest.approx(0.75)
        assert cm.false_negative_rate == pytest.approx(0.25)

    def test_fnr_is_complement_of_recall(self, rng):
        y_true = rng.integers(0, 2, size=200)
        y_pred = rng.integers(0, 2, size=200)
        cm = confusion_matrix(y_true, y_pred)
        assert cm.recall + cm.false_negative_rate == pytest.approx(1.0)

    def test_f1_harmonic_mean(self):
        cm = ConfusionMatrix(true_negative=10, false_positive=5, false_negative=2, true_positive=8)
        p, r = cm.precision, cm.recall
        assert cm.f1 == pytest.approx(2 * p * r / (p + r))

    def test_degenerate_no_positives(self):
        cm = confusion_matrix(np.zeros(5, dtype=int), np.zeros(5, dtype=int))
        assert cm.precision == 0.0 and cm.recall == 0.0 and cm.f1 == 0.0

    def test_non_binary_rejected(self):
        with pytest.raises(TrainingError):
            confusion_matrix(np.array([0, 2]), np.array([0, 1]))

    def test_shape_mismatch(self):
        with pytest.raises(TrainingError):
            confusion_matrix(np.zeros(3), np.zeros(4))


class TestTrainer:
    def _toy_data(self, rng, n=400):
        X = rng.random((n, 8))
        y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
        return X, y

    def test_loss_decreases(self, rng):
        X, y = self._toy_data(rng)
        model = build_qmlp(QMLPConfig(input_features=8, hidden=(16,), seed=1))
        history = Trainer(TrainConfig(epochs=5, seed=1, early_stopping_patience=None)).fit(model, X, y)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_early_stopping_restores_best(self, rng):
        X, y = self._toy_data(rng)
        model = build_qmlp(QMLPConfig(input_features=8, hidden=(16,), seed=1))
        trainer = Trainer(TrainConfig(epochs=30, seed=1, early_stopping_patience=2))
        history = trainer.fit(model, X[:300], y[:300], X[300:], y[300:])
        assert history.epochs_run <= 30
        assert history.best_epoch >= 0
        # Restored model reproduces the recorded best validation F1.
        metrics = Trainer.evaluate(model, X[300:], y[300:])
        assert metrics["f1"] == pytest.approx(history.best_val_f1, abs=1e-9)

    def test_missing_class_raises(self, rng):
        X = rng.random((50, 4))
        with pytest.raises(TrainingError):
            Trainer(TrainConfig(epochs=1)).fit(
                build_qmlp(QMLPConfig(input_features=4, hidden=(8,))), X, np.zeros(50, dtype=int)
            )

    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_negative_label_is_named(self, rng, split):
        X = rng.random((6, 4))
        y, bad = np.array([0, 1, 0, 1, 1, 0]), np.array([0, 1, 0, -1, 1, 0])
        labels = (bad, y) if split == "training" else (y, bad)
        model = build_qmlp(QMLPConfig(input_features=4, hidden=(8,)))
        with pytest.raises(TrainingError, match=f"{split} label -1 at row 3"):
            Trainer(TrainConfig(epochs=1)).fit(model, X, labels[0], X, labels[1])

    def test_predict_batching_consistent(self, rng, trained_dos):
        X = trained_dos.splits.x_test[:300]
        full = Trainer.predict(trained_dos.model, X, batch_size=10_000)
        chunked = Trainer.predict(trained_dos.model, X, batch_size=32)
        np.testing.assert_array_equal(full, chunked)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("clip_norm", 0.0),
            ("clip_norm", -1.0),
            ("lr", 0.0),
            ("lr", -1e-3),
            ("early_stopping_patience", 0),
            ("early_stopping_patience", -2),
        ],
    )
    def test_non_positive_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field}.*{value}"):
            TrainConfig(**{field: value})


class TestPipeline:
    def test_dos_model_learns(self, trained_dos):
        assert trained_dos.metrics["f1"] > 99.0
        assert trained_dos.metrics["fnr"] < 1.0

    def test_fuzzy_harder_than_dos(self, trained_dos, trained_fuzzy):
        assert trained_fuzzy.metrics["f1"] <= trained_dos.metrics["f1"]

    def test_summary_format(self, trained_dos):
        text = trained_dos.summary()
        assert "dos" in text and "F1" in text

    def test_encoder_mismatch_rejected(self, dos_capture):
        with pytest.raises(ConfigError):
            train_ids_model(
                "dos",
                model_config=QMLPConfig(input_features=10),
                capture=dos_capture,
            )

    def test_attack_free_capture_rejected(self, normal_capture):
        with pytest.raises(ConfigError):
            train_ids_model("dos", capture=normal_capture)
