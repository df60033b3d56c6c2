"""End-to-end IDS training pipeline.

``train_ids_model("dos")`` reproduces the paper's model-production flow
in one call: generate (or load) a capture, encode frames, split, build
the quantised MLP, QAT-train it and evaluate on the held-out test set.
The result object carries everything downstream stages need — the
trained model for FINN compilation, the test metrics for Table I, and
the dataset snapshot for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autograd.layers import Sequential
from repro.datasets.carhacking import CarHackingCapture, generate_capture
from repro.datasets.features import BitFeatureEncoder, FeatureEncoder
from repro.datasets.splits import DatasetSplits, train_val_test_split
from repro.errors import ConfigError
from repro.models.qmlp import QMLPConfig, build_qmlp
from repro.training.trainer import TrainConfig, Trainer, TrainHistory
from repro.utils.rng import derive_seed

__all__ = ["IDSModelResult", "train_ids_model"]


@dataclass
class IDSModelResult:
    """Everything produced by one IDS training run."""

    attack: str
    model: Sequential
    model_config: QMLPConfig
    history: TrainHistory
    metrics: dict[str, float]  # test-split metrics, percent
    splits: DatasetSplits
    capture: CarHackingCapture

    def summary(self) -> str:
        """One-line result summary for logs and examples."""
        m = self.metrics
        return (
            f"{self.attack}: {self.model_config.describe()} — "
            f"P {m['precision']:.2f} R {m['recall']:.2f} "
            f"F1 {m['f1']:.2f} FNR {m['fnr']:.2f}"
        )


def train_ids_model(
    attack: str,
    model_config: QMLPConfig | None = None,
    train_config: TrainConfig | None = None,
    capture: CarHackingCapture | None = None,
    encoder: FeatureEncoder | None = None,
    duration: float = 20.0,
    seed: int = 0,
) -> IDSModelResult:
    """Train one per-attack quantised IDS model end to end.

    Parameters
    ----------
    attack:
        ``"dos"`` or ``"fuzzy"`` (the paper's two deployed detectors);
        ``"gear"``/``"rpm"`` spoofing detectors also work.
    model_config:
        Architecture/bit-width; defaults to the deployed 4-bit QMLP.
    capture:
        Pre-generated capture (e.g. loaded from the real dataset CSVs);
        generated synthetically when omitted.
    duration:
        Synthetic capture length when generating.
    seed:
        Master seed; dataset, split and trainer seeds derive from it.
    """
    if capture is None:
        capture = generate_capture(attack, duration=duration, seed=derive_seed(seed, "capture"))
    if capture.num_attack == 0:
        raise ConfigError(
            f"capture contains no attack frames for {attack!r}; "
            "increase duration or check attack windows"
        )
    encoder = encoder or BitFeatureEncoder()
    features, labels = encoder.encode(capture.capture)
    splits = train_val_test_split(features, labels, seed=derive_seed(seed, "split"))

    model_config = model_config or QMLPConfig(
        input_features=features.shape[1], seed=derive_seed(seed, "model")
    )
    if model_config.input_features != features.shape[1]:
        raise ConfigError(
            f"model expects {model_config.input_features} features but the "
            f"encoder produced {features.shape[1]}"
        )
    model = build_qmlp(model_config)

    trainer = Trainer(train_config or TrainConfig(seed=derive_seed(seed, "trainer")))
    history = trainer.fit(model, splits.x_train, splits.y_train, splits.x_val, splits.y_val)
    metrics = trainer.evaluate(model, splits.x_test, splits.y_test)
    return IDSModelResult(
        attack=attack,
        model=model,
        model_config=model_config,
        history=history,
        metrics=metrics,
        splits=splits,
        capture=capture,
    )
