"""A small numpy-backed reverse-mode automatic differentiation engine.

This package is the reproduction's substitute for PyTorch: enough of a
tensor library to express and train the paper's quantised MLP, the
convolutional/recurrent baselines, and the straight-through estimators
used in quantisation-aware training.

Public surface
--------------
* :class:`~repro.autograd.tensor.Tensor` — the differentiable array.
* :mod:`~repro.autograd.functional` — softmax family and cross-entropy.
* :class:`~repro.autograd.module.Module` / layers — ``nn``-style modules.
* :mod:`~repro.autograd.optim` — Adam and gradient clipping.
"""

from repro.autograd import functional, init, optim
from repro.autograd.layers import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.autograd.module import Module, Parameter
from repro.autograd.tensor import Tensor, no_grad

__all__ = [
    "Conv2d",
    "Dropout",
    "Flatten",
    "Linear",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "Tensor",
    "functional",
    "init",
    "no_grad",
    "optim",
]
