"""Standard neural-network layers built on the autograd engine.

The layers mirror their PyTorch namesakes closely enough that the model
definitions in :mod:`repro.models` and :mod:`repro.baselines` read like
the papers they reproduce.  Convolution and max pooling carry
hand-written backward passes (im2col / index scatter) for speed;
everything else is composed from differentiable primitives.
"""

from __future__ import annotations

import math
import numpy as np

from repro.autograd import init as initialisers
from repro.autograd.module import Module, Parameter
from repro.autograd.tensor import Tensor
from repro.errors import ConfigError, ShapeError
from repro.utils.rng import new_rng

__all__ = [
    "Linear",
    "ReLU",
    "Dropout",
    "Flatten",
    "Sequential",
    "Conv2d",
    "MaxPool2d",
]


class Linear(Module):
    """Affine layer ``y = x @ W.T + b`` with PyTorch-default init.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to learn an additive bias.
    seed:
        Seed for the weight initialiser (kept explicit for reproducible
        experiments).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: int = 0):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigError(
                f"Linear dims must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(seed, f"linear-{in_features}x{out_features}")
        self.weight = Parameter(initialisers.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias: Parameter | None = Parameter(rng.uniform(-bound, bound, size=out_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected {self.in_features} input features, got {x.shape[-1]}"
            )
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class ReLU(Module):
    """Elementwise rectifier."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, seed: int = 0):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(seed, "dropout")

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: tuple[int, int] | int
) -> tuple[np.ndarray, int, int]:
    """Rearrange (N, C, H, W) into (N, out_h, out_w, C*kh*kw) patches."""
    pad_h, pad_w = (padding, padding) if isinstance(padding, int) else padding
    n, c, h, w = x.shape
    if pad_h or pad_w:
        x = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    ph, pw = x.shape[2], x.shape[3]
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]  # (N, C, out_h, out_w, kh, kw)
    col = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w, c * kh * kw)
    return np.ascontiguousarray(col), out_h, out_w


def _col2im(
    col_grad: np.ndarray,
    x_shape: tuple[int, ...],
    kh: int,
    kw: int,
    stride: int,
    padding: tuple[int, int] | int,
) -> np.ndarray:
    """Scatter patch gradients back to the (N, C, H, W) input layout."""
    pad_h, pad_w = (padding, padding) if isinstance(padding, int) else padding
    n, c, h, w = x_shape
    ph, pw = h + 2 * pad_h, w + 2 * pad_w
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1
    grad_padded = np.zeros((n, c, ph, pw), dtype=np.float64)
    col_grad = col_grad.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += col_grad[
                :, :, :, :, i, j
            ]
    return grad_padded[:, :, pad_h : ph - pad_h, pad_w : pw - pad_w]


class Conv2d(Module):
    """2-D convolution via im2col with a hand-written backward pass.

    Used by the DCNN baseline (Song et al.'s reduced Inception-style
    network operates on 29x29 CAN-ID bit grids).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int = 1,
        padding: int | tuple[int, int] = 0,
        bias: bool = True,
        seed: int = 0,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kernel_size, kernel_size) if isinstance(kernel_size, int) else tuple(kernel_size)
        self.stride = stride
        self.padding = (padding, padding) if isinstance(padding, int) else tuple(padding)
        kh, kw = self.kernel_size
        rng = new_rng(seed, f"conv-{in_channels}x{out_channels}x{kh}x{kw}")
        shape = (out_channels, in_channels, kh, kw)
        self.weight = Parameter(initialisers.kaiming_uniform(shape, rng))
        if bias:
            fan_in = in_channels * kh * kw
            bound = 1.0 / math.sqrt(fan_in)
            self.bias: Parameter | None = Parameter(rng.uniform(-bound, bound, size=out_channels))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        weight = self.weight
        bias = self.bias
        (kh, kw), s, p = self.kernel_size, self.stride, self.padding
        col, out_h, out_w = _im2col(x.data, kh, kw, s, p)
        w_mat = weight.data.reshape(self.out_channels, -1)  # (OC, C*k*k)
        out = col @ w_mat.T  # (N, out_h, out_w, OC)
        if bias is not None:
            out = out + bias.data
        out = out.transpose(0, 3, 1, 2)
        x_shape = x.shape

        def backward(grad: np.ndarray) -> None:
            grad_hw = grad.transpose(0, 2, 3, 1)  # (N, out_h, out_w, OC)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad_hw.sum(axis=(0, 1, 2)))
            if weight.requires_grad:
                flat_grad = grad_hw.reshape(-1, self.out_channels)
                flat_col = col.reshape(-1, col.shape[-1])
                weight._accumulate((flat_grad.T @ flat_col).reshape(weight.data.shape))
            if x.requires_grad:
                col_grad = grad_hw @ w_mat  # (N, out_h, out_w, C*kh*kw)
                x._accumulate(_col2im(col_grad, x_shape, kh, kw, s, p))

        parents = [x, weight] + ([bias] if bias is not None else [])
        return Tensor._make(out, parents, backward, "conv2d")

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride).

    Input spatial dims must be divisible by the kernel size; the DCNN
    baseline pads its grids accordingly.
    """

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ShapeError(f"MaxPool2d kernel {k} does not divide spatial dims {h}x{w}")
        blocks = x.data.reshape(n, c, h // k, k, w // k, k)
        out = blocks.max(axis=(3, 5))
        mask = blocks == out[:, :, :, None, :, None]
        # Break ties towards the first max so gradients are not double counted.
        flat = mask.reshape(n, c, h // k, w // k, k * k)
        first = np.zeros_like(flat)
        first[
            tuple(np.indices(flat.shape[:-1]))
            + (flat.argmax(axis=-1),)
        ] = True
        mask = first.reshape(mask.shape)

        def backward(grad: np.ndarray) -> None:
            expanded = mask * grad[:, :, :, None, :, None]
            x._accumulate(expanded.reshape(n, c, h, w))

        return Tensor._make(out, (x,), backward, "maxpool2d")
