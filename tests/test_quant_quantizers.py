"""Unit + property tests for quantisers (the Brevitas substitute core)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd.tensor import Tensor
from repro.errors import QuantError
from repro.quant.calibration import EMAObserver
from repro.quant.quantizers import (
    ActQuantizer,
    WeightQuantizer,
    int_range,
    po2_scale,
    round_half_up_array,
)


class TestIntRange:
    @pytest.mark.parametrize(
        "bits,signed,narrow,expected",
        [
            (4, True, True, (-7, 7)),
            (4, True, False, (-8, 7)),
            (4, False, False, (0, 15)),
            (8, True, True, (-127, 127)),
            (1, False, False, (0, 1)),
            (1, True, True, (-1, 1)),
        ],
    )
    def test_known_ranges(self, bits, signed, narrow, expected):
        assert int_range(bits, signed, narrow) == expected

    def test_invalid_bits(self):
        with pytest.raises(QuantError):
            int_range(0, True)
        with pytest.raises(QuantError):
            int_range(64, False)


class TestPo2Scale:
    def test_exact_power(self):
        assert po2_scale(7.0, 7) == 1.0

    def test_rounds_up_to_cover(self):
        scale = po2_scale(1.0, 7)
        assert scale == 0.25  # 2^ceil(log2(1/7)) = 2^-2
        assert 1.0 / scale <= 7 + 1e-12

    def test_zero_maxabs(self):
        assert po2_scale(0.0, 7) == 1.0

    @given(st.floats(min_value=1e-6, max_value=1e6), st.integers(min_value=1, max_value=255))
    def test_scale_is_power_of_two_and_covers(self, abs_max, qmax):
        scale = po2_scale(abs_max, qmax)
        mantissa, _ = np.frexp(scale)
        assert mantissa == 0.5  # power of two
        assert abs_max / scale <= qmax * (1 + 1e-12)


class TestRoundHalfUp:
    def test_half_goes_up(self):
        np.testing.assert_array_equal(round_half_up_array([0.5, 1.5, 2.5, -0.5]), [1, 2, 3, 0])

    def test_matches_floor_plus_half(self):
        values = np.linspace(-3, 3, 61)
        np.testing.assert_array_equal(round_half_up_array(values), np.floor(values + 0.5))


class TestWeightQuantizer:
    def test_fake_quant_on_grid(self, rng):
        quantizer = WeightQuantizer(4)
        weight = Tensor(rng.normal(size=(8, 8)))
        fake, scale = quantizer.quantize(weight)
        ints = fake.data / scale
        np.testing.assert_allclose(ints, np.round(ints), atol=1e-9)
        assert np.abs(ints).max() <= 7

    def test_int_weights_match_fake_quant(self, rng):
        quantizer = WeightQuantizer(4)
        weight = rng.normal(size=(6, 10))
        ints, scale = quantizer.int_weights(weight)
        fake, scale2 = quantizer.quantize(Tensor(weight))
        assert scale == scale2
        np.testing.assert_allclose(ints * scale, fake.data)

    def test_ste_gradient_passes_through(self, rng):
        quantizer = WeightQuantizer(4)
        weight = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        fake, _ = quantizer.quantize(weight)
        fake.sum().backward()
        np.testing.assert_allclose(weight.grad, np.full((3, 3), 1.0))

    def test_zero_weight_matrix(self):
        ints, scale = WeightQuantizer(4).int_weights(np.zeros((2, 2)))
        assert scale == 1.0
        np.testing.assert_array_equal(ints, 0)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_int_weights_always_in_range(self, bits, seed):
        rng = np.random.default_rng(seed)
        weight = rng.normal(scale=rng.uniform(0.01, 10), size=(4, 6))
        ints, _ = WeightQuantizer(bits).int_weights(weight)
        qmin, qmax = int_range(bits, signed=True, narrow_range=True)
        assert ints.min() >= qmin and ints.max() <= qmax


class TestActQuantizer:
    def test_unsigned_range(self, rng):
        quantizer = ActQuantizer(4, signed=False)
        x = Tensor(np.abs(rng.normal(size=100)))
        out = quantizer.quantize(x, training=True)
        ints = out.data / quantizer.scale
        assert ints.min() >= 0 and ints.max() <= 15
        np.testing.assert_allclose(ints, np.round(ints), atol=1e-9)

    def test_scale_frozen_after_training(self, rng):
        quantizer = ActQuantizer(4)
        quantizer.quantize(Tensor(np.abs(rng.normal(size=50))), training=True)
        quantizer.observer.freeze()
        scale_before = quantizer.scale
        quantizer.quantize(Tensor(np.abs(rng.normal(size=50)) * 100), training=True)
        assert quantizer.scale == scale_before

    def test_uncalibrated_inference_self_calibrates(self, rng):
        quantizer = ActQuantizer(4)
        out = quantizer.quantize(Tensor(np.abs(rng.normal(size=10))), training=False)
        assert np.isfinite(out.data).all()

    def test_quantize_array_matches_tensor_path(self, rng):
        quantizer = ActQuantizer(4)
        x = np.abs(rng.normal(size=64))
        quantizer.observe(x)
        tensor_out = quantizer.quantize(Tensor(x), training=False).data
        array_out = quantizer.quantize_array(x)
        np.testing.assert_array_equal(tensor_out, array_out)

    def test_int_array(self, rng):
        quantizer = ActQuantizer(4)
        x = np.abs(rng.normal(size=32))
        quantizer.observe(x)
        ints = quantizer.int_array(x)
        np.testing.assert_allclose(ints * quantizer.scale, quantizer.quantize_array(x))

    def test_state_roundtrip(self, rng):
        quantizer = ActQuantizer(4)
        quantizer.observe(np.abs(rng.normal(size=32)))
        state = quantizer.state()
        fresh = ActQuantizer(4)
        fresh.load_state(state)
        assert fresh.scale == quantizer.scale


class TestObservers:
    def test_ema_moves_towards_recent(self):
        obs = EMAObserver(momentum=0.5)
        obs.observe(np.array([4.0]))
        obs.observe(np.array([8.0]))
        assert obs.range == pytest.approx(6.0)

    def test_frozen_observer_ignores_updates(self):
        obs = EMAObserver()
        obs.observe(np.array([1.0]))
        obs.freeze()
        obs.observe(np.array([100.0]))
        assert obs.range == 1.0

    def test_empty_batch_rejected(self):
        with pytest.raises(QuantError):
            EMAObserver().observe(np.array([]))

    def test_bad_momentum(self):
        with pytest.raises(QuantError):
            EMAObserver(momentum=0.0)
