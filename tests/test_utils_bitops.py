"""Unit + property tests for repro.utils.bitops."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.utils.bitops import (
    bits_to_int,
    bytes_to_bits,
    destuff_bits,
    int_to_bits,
    stuff_bits,
)


class TestIntBits:
    def test_msb_first(self):
        assert int_to_bits(0b1011, 4).tolist() == [1, 0, 1, 1]

    def test_leading_zeros(self):
        assert int_to_bits(1, 8).tolist() == [0] * 7 + [1]

    def test_zero(self):
        assert int_to_bits(0, 3).tolist() == [0, 0, 0]

    def test_value_too_large(self):
        with pytest.raises(ConfigError):
            int_to_bits(16, 4)

    def test_negative_value(self):
        with pytest.raises(ConfigError):
            int_to_bits(-1, 4)

    def test_bad_width(self):
        with pytest.raises(ConfigError):
            int_to_bits(0, 0)

    def test_bits_to_int_inverse(self):
        assert bits_to_int([1, 0, 1, 1]) == 0b1011

    def test_bits_to_int_rejects_non_binary(self):
        with pytest.raises(ConfigError):
            bits_to_int([0, 2, 1])

    @given(st.integers(min_value=0, max_value=2**29 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 29)) == value


class TestByteBits:
    def test_bytes_to_bits(self):
        assert bytes_to_bits([0xA5])[:8].tolist() == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_empty(self):
        assert bytes_to_bits([]).size == 0

    def test_value_range_checked(self):
        with pytest.raises(ConfigError):
            bytes_to_bits([256])

    @given(st.binary(min_size=0, max_size=16))
    def test_roundtrip(self, data):
        assert np.packbits(bytes_to_bits(data)).tobytes() == data


class TestStuffing:
    def test_five_zeros_get_stuffed(self):
        assert stuff_bits([0, 0, 0, 0, 0]).tolist() == [0, 0, 0, 0, 0, 1]

    def test_five_ones_get_stuffed(self):
        assert stuff_bits([1, 1, 1, 1, 1]).tolist() == [1, 1, 1, 1, 1, 0]

    def test_alternating_untouched(self):
        bits = [0, 1] * 10
        assert stuff_bits(bits).tolist() == bits

    def test_stuff_bit_counts_towards_next_run(self):
        # 0x00 byte + more zeros: stuff bit (1) resets the zero run.
        out = stuff_bits([0] * 10)
        assert out.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=200))
    def test_roundtrip(self, bits):
        stuffed = stuff_bits(bits)
        assert destuff_bits(stuffed).tolist() == bits

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200))
    def test_no_six_bit_runs_after_stuffing(self, bits):
        stuffed = stuff_bits(bits).tolist()
        run = 1
        for a, b in zip(stuffed, stuffed[1:]):
            run = run + 1 if a == b else 1
            assert run <= 5
