"""Tests for nn layers: shapes, gradients, train/eval behaviour."""

import numpy as np
import pytest

from repro.autograd.layers import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    _col2im,
    _im2col,
)
from repro.autograd.tensor import Tensor
from repro.errors import ConfigError, ShapeError


class TestLinear:
    def test_forward_matches_numpy(self, rng):
        layer = Linear(4, 3, seed=1)
        x = rng.normal(size=(5, 4))
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data, x @ layer.weight.data.T + layer.bias.data)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, seed=1)
        assert layer.bias is None
        out = layer(Tensor(rng.normal(size=(2, 4))))
        assert out.shape == (2, 3)

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            Linear(4, 3)(Tensor(np.zeros((2, 5))))

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            Linear(0, 3)

    def test_deterministic_init(self):
        a = Linear(6, 2, seed=9).weight.data
        b = Linear(6, 2, seed=9).weight.data
        np.testing.assert_array_equal(a, b)

    def test_grad_shapes(self, rng):
        layer = Linear(4, 3, seed=1)
        layer(Tensor(rng.normal(size=(7, 4)))).sum().backward()
        assert layer.weight.grad.shape == (3, 4)
        assert layer.bias.grad.shape == (3,)


class TestActivationsDropout:
    def test_relu_layer(self):
        assert ReLU()(Tensor([-1.0, 2.0])).data.tolist() == [0.0, 2.0]

    def test_dropout_eval_is_identity(self, rng):
        layer = Dropout(0.5, seed=1)
        layer.training = False
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(layer(Tensor(x)).data, x)

    def test_dropout_train_scales_kept_units(self):
        layer = Dropout(0.5, seed=1)
        x = np.ones((2000,))
        out = layer(Tensor(x)).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted dropout scale
        assert 0.3 < (out != 0).mean() < 0.7

    def test_dropout_p_validated(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)


class TestConv2d:
    def test_output_shape(self, rng):
        conv = Conv2d(2, 5, 3, padding=1, seed=1)
        out = conv(Tensor(rng.normal(size=(4, 2, 8, 8))))
        assert out.shape == (4, 5, 8, 8)

    def test_stride(self, rng):
        conv = Conv2d(1, 1, 3, stride=2, padding=1, seed=1)
        out = conv(Tensor(rng.normal(size=(1, 1, 8, 8))))
        assert out.shape == (1, 1, 4, 4)

    def test_rectangular_kernel(self, rng):
        conv = Conv2d(3, 4, (1, 3), padding=(0, 1), seed=1)
        out = conv(Tensor(rng.normal(size=(2, 3, 1, 10))))
        assert out.shape == (2, 4, 1, 10)

    def test_forward_matches_direct_convolution(self, rng):
        conv = Conv2d(1, 1, 3, seed=2)
        x = rng.normal(size=(1, 1, 5, 5))
        out = conv(Tensor(x)).data[0, 0]
        kernel = conv.weight.data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i : i + 3, j : j + 3] * kernel).sum() + conv.bias.data[0]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_input_gradient_numerically(self, rng):
        conv = Conv2d(1, 2, 3, padding=1, seed=3)
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        (conv(x) ** 2).sum().backward()

        def loss():
            col, _, _ = _im2col(x.data, 3, 3, 1, 1)
            out = col @ conv.weight.data.reshape(2, -1).T + conv.bias.data
            return float((out**2).sum())

        from tests.test_autograd_tensor import numerical_grad

        np.testing.assert_allclose(x.grad, numerical_grad(loss, x.data), atol=1e-4)

    def test_col2im_inverts_im2col_for_disjoint_patches(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        col, oh, ow = _im2col(x, 2, 2, 2, 0)
        back = _col2im(col, x.shape, 2, 2, 2, 0)
        np.testing.assert_allclose(back, x)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            Conv2d(3, 1, 3)(Tensor(np.zeros((1, 2, 5, 5))))


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(Tensor(x)).data
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_mass(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        MaxPool2d(2)(x).sum().backward()
        assert x.grad.sum() == pytest.approx(2 * 3 * 4)  # one unit per window

    def test_maxpool_tie_single_gradient(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        MaxPool2d(2)(x).sum().backward()
        assert x.grad.sum() == pytest.approx(1.0)

    def test_divisibility_checked(self):
        with pytest.raises(ShapeError):
            MaxPool2d(3)(Tensor(np.zeros((1, 1, 4, 4))))


class TestSequentialFlatten:
    def test_pipeline(self, rng):
        net = Sequential(Linear(6, 4, seed=1), ReLU(), Flatten(), Linear(4, 2, seed=2))
        out = net(Tensor(rng.normal(size=(3, 6))))
        assert out.shape == (3, 2)

    def test_len_iter_getitem(self):
        net = Sequential(ReLU(), ReLU())
        assert len(net) == 2
        assert isinstance(net[0], ReLU)
        assert all(isinstance(m, ReLU) for m in net)

    def test_train_eval_propagates(self):
        net = Sequential(Dropout(0.5), Linear(2, 2))
        net.eval()
        assert not net[0].training
        net.train()
        assert net[0].training
