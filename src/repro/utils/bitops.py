"""Bit-level helpers shared by the CAN codec and the feature encoders.

Conventions
-----------
* Bit vectors are numpy ``uint8`` arrays of 0/1 values, **most
  significant bit first** (network order), matching how CAN serialises
  identifiers and payload bytes on the wire.
* ``int_to_bits``/``bits_to_int`` are exact inverses for any width.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "int_to_bits",
    "bits_to_int",
    "bytes_to_bits",
    "stuff_bits",
    "destuff_bits",
]


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Encode ``value`` as ``width`` bits, MSB first.

    >>> int_to_bits(5, 4).tolist()
    [0, 1, 0, 1]
    """
    if width <= 0:
        raise ConfigError(f"width must be positive, got {width}")
    value = int(value)
    if value < 0 or value >= (1 << width):
        raise ConfigError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: Sequence[int] | np.ndarray) -> int:
    """Decode an MSB-first bit sequence back to an integer.

    >>> bits_to_int([0, 1, 0, 1])
    5
    """
    result = 0
    for bit in np.asarray(bits, dtype=np.uint8).tolist():
        if bit not in (0, 1):
            raise ConfigError(f"bit values must be 0/1, got {bit}")
        result = (result << 1) | bit
    return result


def bytes_to_bits(data: Iterable[int]) -> np.ndarray:
    """Expand a byte sequence into a bit vector, MSB first per byte.

    >>> bytes_to_bits([0x80, 0x01])[:8].tolist()
    [1, 0, 0, 0, 0, 0, 0, 0]
    """
    data = np.asarray(list(data), dtype=np.int64)
    if data.size and (data.min() < 0 or data.max() > 0xFF):
        raise ConfigError("byte values must be in [0, 255]")
    if data.size == 0:
        return np.zeros(0, dtype=np.uint8)
    shifts = np.arange(7, -1, -1, dtype=np.int64)
    return ((data[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def stuff_bits(bits: Sequence[int] | np.ndarray) -> np.ndarray:
    """Apply CAN bit stuffing: after 5 identical bits, insert the opposite.

    CAN transmitters insert a complementary *stuff bit* whenever five
    consecutive bits of the same polarity have been sent, so receivers
    can stay synchronised.  Stuff bits themselves count towards the next
    run, which is why ``destuff_bits`` can invert this exactly.

    >>> stuff_bits([0, 0, 0, 0, 0, 0]).tolist()
    [0, 0, 0, 0, 0, 1, 0]
    """
    out: list[int] = []
    run_value = -1
    run_length = 0
    for bit in np.asarray(bits, dtype=np.uint8).tolist():
        out.append(bit)
        if bit == run_value:
            run_length += 1
        else:
            run_value = bit
            run_length = 1
        if run_length == 5:
            stuffed = 1 - run_value
            out.append(stuffed)
            run_value = stuffed
            run_length = 1
    return np.array(out, dtype=np.uint8)


def destuff_bits(bits: Sequence[int] | np.ndarray) -> np.ndarray:
    """Remove CAN stuff bits inserted by :func:`stuff_bits`."""
    out: list[int] = []
    run_value = -1
    run_length = 0
    skip_next = False
    for bit in np.asarray(bits, dtype=np.uint8).tolist():
        if skip_next:
            skip_next = False
            run_value = bit
            run_length = 1
            continue
        out.append(bit)
        if bit == run_value:
            run_length += 1
        else:
            run_value = bit
            run_length = 1
        if run_length == 5:
            skip_next = True
    return np.array(out, dtype=np.uint8)
