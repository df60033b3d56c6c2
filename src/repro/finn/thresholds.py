"""Exact activation-to-threshold conversion.

The heart of FINN streamlining: a quantised activation

    y_int = clip( round_half_up( (ReLU(s_acc * acc + b)) / s_y ), 0, L )

over an **integer** accumulator ``acc`` is a monotone staircase, so it
can be implemented as ``L`` integer comparisons:

    y_int = sum_{t=1..L} [ acc >= T_t ]

This module computes the ``T_t`` of every output channel in one array
pass.  The analytical candidates ``T_t = ceil( (s_y * (t - 0.5) - b) /
s_acc )`` form a ``(C, L)`` array; because scales and biases are
float64, the whole array is then *fixed up* against the actual
activation function (same float operations as the QAT model) by one
bounded walk — every entry steps down while it already reaches its
level, then up while it does not, each stopping on its own within 64
steps each way — guaranteeing bit-exactness by construction rather
than by numerical luck.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompileError
from repro.quant.quantizers import round_half_up_array

__all__ = ["activation_int", "compute_thresholds"]

#: Most steps the fix-up walk takes per entry in each direction.
_MAX_FIXUP_STEPS = 64

#: Candidates must lie strictly inside this magnitude to convert to
#: int64 and leave room for the walk.
_INT64_BOUND = 2.0**63


def activation_int(
    acc: np.ndarray | float,
    acc_scale: float,
    bias: float,
    act_scale: float,
    levels: int,
) -> np.ndarray:
    """Reference integer activation for one channel.

    ``acc`` is the integer accumulator; returns the unsigned activation
    level, using the exact float operations of the QAT eval forward.
    """
    value = np.maximum(acc_scale * np.asarray(acc, dtype=np.float64) + bias, 0.0)
    return np.clip(round_half_up_array(value / act_scale), 0, levels).astype(np.int64)


def _where(bad: np.ndarray, s_acc: np.ndarray, bias: np.ndarray, act_scale: float) -> str:
    """Name the first flagged ``(channel, level)`` entry and its operands."""
    channel, level = (int(i) for i in np.argwhere(bad)[0])
    return (
        f"channel {channel}, level {level + 1} (acc_scale={s_acc[channel, 0]}, "
        f"bias={bias[channel, 0]}, act_scale={act_scale})"
    )


def compute_thresholds(
    acc_scale: np.ndarray | float,
    bias: np.ndarray,
    act_scale: float,
    act_bits: int,
) -> np.ndarray:
    """Per-channel integer thresholds for a quantised ReLU activation.

    Parameters
    ----------
    acc_scale:
        ``weight_scale * input_scale`` — scalar or per-channel array;
        the scale of the integer accumulator.
    bias:
        Per-channel float bias (``(C,)``).
    act_scale:
        The activation quantiser's scale.
    act_bits:
        Activation bit width; produces ``2**act_bits - 1`` thresholds.

    Returns
    -------
    ndarray
        ``(C, 2**act_bits - 1)`` ascending integer thresholds.

    Raises
    ------
    CompileError
        On ``act_bits < 1``, a bias that is not a vector, a scale vector
        whose length is neither 1 nor the channel count, a scale that is
        not finite and positive, a bias that is not finite, a candidate
        that does not fit int64, or an entry the fix-up walk cannot
        settle.
    """
    if act_bits < 1:
        raise CompileError(f"act_bits must be >= 1 for threshold conversion, got {act_bits}")
    bias = np.asarray(bias, dtype=np.float64)
    if bias.ndim != 1:
        raise CompileError(f"bias must be a (C,) vector, got shape {bias.shape}")
    channels = bias.shape[0]
    scales = np.asarray(acc_scale, dtype=np.float64).reshape(-1)
    if scales.shape[0] not in (1, channels):
        raise CompileError(
            f"acc_scale has {scales.shape[0]} entries for {channels} channels; "
            f"need 1 or {channels}"
        )
    act_scale = float(act_scale)
    if not (np.isfinite(act_scale) and act_scale > 0):
        raise CompileError(f"act_scale must be finite and positive, got {act_scale}")
    bad = ~(np.isfinite(scales) & (scales > 0))
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise CompileError(
            f"acc_scale must be finite and positive, got acc_scale[{index}]={scales[index]}"
        )
    bad = ~np.isfinite(bias)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise CompileError(f"bias must be finite, got bias[{index}]={bias[index]}")
    s_acc = np.broadcast_to(scales, (channels,))[:, None]
    b = bias[:, None]
    levels = 2**act_bits - 1
    level = np.arange(1, levels + 1, dtype=np.int64)

    # One IEEE operation per step, so every entry rounds exactly as the
    # scalar formula does; an overflow to inf is rejected just below.
    with np.errstate(over="ignore"):
        candidates = np.ceil((act_scale * (level - 0.5) - b) / s_acc)
    fits = np.abs(candidates) < _INT64_BOUND  # False for inf and NaN too
    if not fits.all():
        raise CompileError(
            f"threshold candidate {candidates[~fits][0]} does not fit int64 at "
            f"{_where(~fits, s_acc, b, act_scale)}"
        )
    thresholds = candidates.astype(np.int64)

    def f(acc: np.ndarray) -> np.ndarray:
        return activation_int(acc, s_acc, b, act_scale, levels)

    # Each entry walks down while it already reaches its level, then up
    # while it does not, stopping on its own or after _MAX_FIXUP_STEPS.
    moving = f(thresholds) >= level
    step = 0
    while step < _MAX_FIXUP_STEPS and moving.any():
        thresholds -= moving
        moving &= f(thresholds) >= level
        step += 1
    moving = f(thresholds) < level
    step = 0
    while step < _MAX_FIXUP_STEPS and moving.any():
        thresholds += moving
        moving &= f(thresholds) < level
        step += 1
    exact = (f(thresholds) >= level) & (f(thresholds - 1) < level)
    if not exact.all():
        raise CompileError(f"threshold fix-up failed at {_where(~exact, s_acc, b, act_scale)}")
    if np.any(np.diff(thresholds, axis=1) < 0):
        raise CompileError("computed thresholds are not monotone (invalid quantiser state)")
    return thresholds
