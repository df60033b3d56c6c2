"""Tests for SoC primitives: device DB, AXI bus, packing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ResourceError, SoCError
from repro.finn.resources import ResourceEstimate
from repro.soc.accelerator import pack_words
from repro.soc.axi import AXILiteBus
from repro.soc.device import DEVICES, PYNQ_Z2, ZCU104


class TestDevice:
    def test_zcu104_capacities(self):
        assert ZCU104.lut == 230_400
        assert ZCU104.part.startswith("XCZU7EV")

    def test_utilization_math(self):
        util = ZCU104.utilization(ResourceEstimate(lut=2304, ff=4608, bram36=31.2, dsp=172.8))
        assert util["lut"] == pytest.approx(1.0)
        assert util["ff"] == pytest.approx(1.0)
        assert util["bram36"] == pytest.approx(10.0)
        assert util["dsp"] == pytest.approx(10.0)

    def test_check_fits_raises_on_overflow(self):
        with pytest.raises(ResourceError):
            PYNQ_Z2.check_fits(ResourceEstimate(lut=100_000))

    def test_instances_that_fit(self):
        est = ResourceEstimate(lut=23_040)  # 10% of ZCU104 LUTs
        assert ZCU104.instances_that_fit(est, margin=0.9) == 9

    def test_zero_usage_rejected(self):
        with pytest.raises(ResourceError):
            ZCU104.instances_that_fit(ResourceEstimate())

    def test_device_registry(self):
        assert set(DEVICES) == {"zcu104", "pynq-z2", "zcu102"}

    def test_resource_arithmetic(self):
        a = ResourceEstimate(lut=10, ff=20, bram36=1, dsp=2)
        b = a + a
        assert (b.lut, b.ff, b.bram36, b.dsp) == (20, 40, 2, 4)
        c = a.scaled(3)
        assert c.lut == 30


class TestAXIBus:
    def test_write_read_roundtrip(self):
        bus = AXILiteBus()
        bus.map_port("ip", 0x1000, 0x100)
        bus.write(0x1010, 0xDEADBEEF)
        assert bus.read(0x1010) == 0xDEADBEEF

    def test_latency_accounting(self):
        bus = AXILiteBus(access_latency=1e-6)
        bus.map_port("ip", 0x0, 0x100)
        bus.write(0x0, 1)
        bus.read(0x0)
        assert bus.transactions == 2
        assert bus.busy_seconds == pytest.approx(2e-6)

    def test_decode_error_unmapped(self):
        bus = AXILiteBus()
        with pytest.raises(SoCError):
            bus.read(0x5000)

    def test_unaligned_rejected(self):
        bus = AXILiteBus()
        bus.map_port("ip", 0x0, 0x100)
        with pytest.raises(SoCError):
            bus.read(0x2)

    def test_overlapping_ports_rejected(self):
        bus = AXILiteBus()
        bus.map_port("a", 0x0, 0x100)
        with pytest.raises(SoCError):
            bus.map_port("b", 0x80, 0x100)

    def test_value_width_checked(self):
        bus = AXILiteBus()
        bus.map_port("ip", 0x0, 0x100)
        with pytest.raises(SoCError):
            bus.write(0x0, 2**32)

    def test_poke_peek_no_accounting(self):
        bus = AXILiteBus()
        bus.map_port("ip", 0x0, 0x100)
        bus.poke(0x4, 7)
        assert bus.peek(0x4) == 7
        assert bus.transactions == 0


class TestPackWords:
    def test_one_bit_packing(self):
        assert pack_words(np.array([1, 0, 1, 1]), 1) == [0b1101]

    def test_eight_bit_packing(self):
        words = pack_words(np.array([0x11, 0x22, 0x33, 0x44, 0x55]), 8)
        assert words == [0x44332211, 0x55]

    def test_cross_word_boundary(self):
        words = pack_words(np.array([0x3FF, 0x3FF, 0x3FF, 0x3FF]), 10)
        assert len(words) == 2
        assert words[0] == 0xFFFFFFFF

    def test_value_range_checked(self):
        with pytest.raises(SoCError):
            pack_words(np.array([4]), 2)

    def test_bits_validated(self):
        with pytest.raises(SoCError):
            pack_words(np.array([1]), 0)

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_unpack_roundtrip_property(self, values):
        words = pack_words(np.array(values, dtype=np.int64), 8)
        recovered = []
        for index in range(len(values)):
            word, offset = divmod(index * 8, 32)
            recovered.append((words[word] >> offset) & 0xFF)
        assert recovered == values
