"""``nn.Module``-style containers for the autograd engine.

A :class:`Module` discovers its :class:`Parameter` and sub-module
attributes by inspecting ``__dict__`` (and lists/tuples of modules), so
model classes read exactly like their PyTorch counterparts:

>>> class TinyNet(Module):
...     def __init__(self):
...         super().__init__()
...         self.weight = Parameter(np.zeros((2, 2)))
...     def forward(self, x):
...         return x @ self.weight
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ConfigError

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable tensor; ``requires_grad`` defaults to True."""

    __slots__ = ()

    def __init__(self, data: Any, requires_grad: bool = True):
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class Module:
    """Base class for layers and models.

    Provides parameter traversal, train/eval mode switching, gradient
    zeroing and a flat ``state_dict`` keyed by dotted attribute paths.
    """

    def __init__(self):
        self.training = True

    # -- forward ---------------------------------------------------------
    def forward(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.forward(*args, **kwargs)

    # -- traversal -------------------------------------------------------
    def _children(self) -> Iterator[tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{index}", item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}{name}", value)
        for child_name, child in self._children():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters, depth-first."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return int(sum(p.data.size for p in self.parameters()))

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for _, child in self._children():
            yield from child.modules()

    # -- training state ----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects Dropout and quant observers)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- persistence -----------------------------------------------------
    def extra_state(self) -> dict[str, np.ndarray]:
        """Non-parameter state to persist (e.g. quantiser observer ranges).

        Subclasses with buffers override this together with
        :meth:`load_extra_state`.
        """
        return {}

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`extra_state`."""

    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Flat mapping of dotted names to parameter/buffer arrays (copies)."""
        state: dict[str, np.ndarray] = {}
        for name, param in vars(self).items():
            if isinstance(param, Parameter):
                state[f"{prefix}{name}"] = param.data.copy()
        for name, value in self.extra_state().items():
            state[f"{prefix}{name}"] = np.asarray(value).copy()
        for child_name, child in self._children():
            state.update(child.state_dict(prefix=f"{prefix}{child_name}."))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        """Load arrays saved by :meth:`state_dict` (strict on shapes)."""
        own_extra = self.extra_state()
        extra_update: dict[str, np.ndarray] = {}
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                key = f"{prefix}{name}"
                if key not in state:
                    raise ConfigError(f"state_dict is missing parameter {key!r}")
                loaded = np.asarray(state[key], dtype=np.float64)
                if loaded.shape != value.data.shape:
                    raise ConfigError(
                        f"shape mismatch for {key!r}: saved {loaded.shape}, "
                        f"expected {value.data.shape}"
                    )
                value.data = loaded.copy()
        for name in own_extra:
            key = f"{prefix}{name}"
            if key in state:
                extra_update[name] = np.asarray(state[key])
        if extra_update:
            self.load_extra_state(extra_update)
        for child_name, child in self._children():
            child.load_state_dict(state, prefix=f"{prefix}{child_name}.")

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {child!r}".replace("\n", "\n  ") for name, child in self._children()]
        if not child_lines:
            return f"{type(self).__name__}()"
        return f"{type(self).__name__}(\n" + "\n".join(child_lines) + "\n)"
