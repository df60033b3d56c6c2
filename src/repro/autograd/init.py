"""Weight initialisation.

The initialiser takes an explicit :class:`numpy.random.Generator`; the
library never touches global numpy RNG state.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

__all__ = ["kaiming_uniform"]


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, a: float = math.sqrt(5)) -> np.ndarray:
    """He/Kaiming uniform (PyTorch Linear default with ``a=sqrt(5)``)."""
    if len(shape) < 2:
        raise ConfigError(f"fan-in undefined for shape {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
