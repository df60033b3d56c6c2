"""Shared fixtures.

Anything that trains or simulates at scale is session-scoped and sized
to keep the full suite fast: captures are a few seconds of bus time,
training runs are a handful of epochs.  Tests assert on *structure and
invariants* (bit-exactness, monotonicity, conservation), not on
squeezing out the paper's exact accuracy — the benchmarks do that at
full size.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets.carhacking import CarHackingCapture, generate_capture
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.finn.ipgen import AcceleratorIP, compile_model
from repro.models.qmlp import QMLPConfig
from repro.training.pipeline import IDSModelResult, train_ids_model
from repro.training.trainer import TrainConfig

# CI runners discard the .hypothesis/ example database after each job, so
# a failing property test must print the blob that replays it
# (@reproduce_failure).  The profile inherits the active settings (under
# CI, recent hypothesis releases have already loaded their own "ci"
# profile), so example counts, deadlines and seeds do not change.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def dos_capture() -> CarHackingCapture:
    """A small DoS capture (a few thousand frames)."""
    return generate_capture(
        "dos", duration=3.0, seed=1234, initial_gap=0.2, attack_burst=1.2, attack_gap=0.8
    )


@pytest.fixture(scope="session")
def fuzzy_capture() -> CarHackingCapture:
    """A small Fuzzy capture."""
    return generate_capture(
        "fuzzy", duration=3.0, seed=1234, initial_gap=0.2, attack_burst=1.2, attack_gap=0.8
    )


@pytest.fixture(scope="session")
def normal_capture() -> CarHackingCapture:
    """An attack-free capture."""
    return generate_capture(None, duration=2.0, seed=1234)


@pytest.fixture(scope="session")
def tiny_model_config() -> QMLPConfig:
    """A small 4-bit QMLP used by compile-oriented tests."""
    return QMLPConfig(hidden=(32, 16), weight_bits=4, act_bits=4, seed=7)


@pytest.fixture(scope="session")
def trained_dos(dos_capture, tiny_model_config) -> IDSModelResult:
    """A trained (small) DoS detector shared across tests."""
    return train_ids_model(
        "dos",
        model_config=tiny_model_config,
        train_config=TrainConfig(epochs=6, seed=3),
        capture=dos_capture,
        seed=11,
    )


@pytest.fixture(scope="session")
def trained_fuzzy(fuzzy_capture, tiny_model_config) -> IDSModelResult:
    """A trained (small) Fuzzy detector shared across tests."""
    return train_ids_model(
        "fuzzy",
        model_config=tiny_model_config,
        train_config=TrainConfig(epochs=6, seed=3),
        capture=fuzzy_capture,
        seed=11,
    )


@pytest.fixture(scope="session")
def dos_ip(trained_dos) -> AcceleratorIP:
    """A compiled, verified DoS accelerator."""
    return compile_model(trained_dos.model, name="test-dos-ip", target_fps=1e6)


@pytest.fixture(scope="session")
def experiment_context(dos_capture, fuzzy_capture) -> ExperimentContext:
    """A context with pre-seeded small captures for experiment tests."""
    context = ExperimentContext(ExperimentSettings(duration=3.0, epochs=5, seed=9))
    context._captures["dos"] = dos_capture
    context._captures["fuzzy"] = fuzzy_capture
    return context


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(0)
