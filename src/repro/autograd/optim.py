"""Optimiser and gradient clipping.

Adam covers every training recipe in the reproduction; the recurrent and
temporal-convolution baselines add global-norm gradient clipping.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.autograd.module import Parameter
from repro.errors import ConfigError

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


class Optimizer:
    """Base class holding the parameter list and the learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ConfigError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with their default betas (0.9, 0.999) and eps 1e-8."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3):
        super().__init__(parameters, lr)
        self._step_count = 0
        self._m: list[np.ndarray | None] = [None] * len(self.parameters)
        self._v: list[np.ndarray | None] = [None] * len(self.parameters)

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - _BETA1**self._step_count
        bias2 = 1.0 - _BETA2**self._step_count
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self._m[index] is None:
                self._m[index] = np.zeros_like(param.data)
                self._v[index] = np.zeros_like(param.data)
            m, v = self._m[index], self._v[index]
            m *= _BETA1
            m += (1 - _BETA1) * grad
            v *= _BETA2
            v += (1 - _BETA2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for divergence monitoring in RNN
    baselines).
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total
