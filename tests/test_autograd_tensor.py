"""Gradient correctness of the autograd engine (numerical checks)."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.errors import GradError, ShapeError


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        hi = fn()
        flat_x[i] = original - eps
        lo = fn()
        flat_x[i] = original
        flat_g[i] = (hi - lo) / (2 * eps)
    return grad


def check_unary(op_name, np_fn, shape=(3, 4), positive=False, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.random(shape) + 0.5 if positive else rng.normal(size=shape)
    x = Tensor(data.copy(), requires_grad=True)
    out = getattr(x, op_name)()
    out.sum().backward()
    expected = numerical_grad(lambda: float(np_fn(x.data).sum()), x.data)
    np.testing.assert_allclose(x.grad, expected, atol=1e-5)


class TestElementwiseGrads:
    def test_exp(self):
        check_unary("exp", np.exp)

    def test_log(self):
        check_unary("log", np.log, positive=True)

    def test_tanh(self):
        check_unary("tanh", np.tanh)

    def test_sigmoid(self):
        check_unary("sigmoid", lambda v: 1 / (1 + np.exp(-v)))

    def test_relu(self):
        check_unary("relu", lambda v: np.maximum(v, 0))


class TestArithmeticGrads:
    def test_add_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_mul_grads(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_div_grad(self, rng):
        a = Tensor(rng.normal(size=(5,)), requires_grad=True)
        b = Tensor(rng.random(5) + 0.5, requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1 / b.data)
        np.testing.assert_allclose(b.grad, -a.data / b.data**2)

    def test_pow_grad(self, rng):
        x = Tensor(rng.random(4) + 0.5, requires_grad=True)
        (x**3).sum().backward()
        np.testing.assert_allclose(x.grad, 3 * x.data**2)

    def test_rsub_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        (1.0 - x).backward()
        np.testing.assert_allclose(x.grad, [-1.0])
        y = Tensor([2.0], requires_grad=True)
        (1.0 / y).backward()
        np.testing.assert_allclose(y.grad, [-0.25])

    def test_matmul_grads(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        expected_a = numerical_grad(lambda: float((a.data @ b.data).sum()), a.data)
        expected_b = numerical_grad(lambda: float((a.data @ b.data).sum()), b.data)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_gradient_accumulates_on_reuse(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones(3))


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        x.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 5)))

    def test_mean_grad(self, rng):
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 2), 1 / 8))

    def test_reshape_transpose_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        y = x.reshape(3, 4).transpose(1, 0)
        assert y.shape == (4, 3)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 6)))

    def test_getitem_scatter(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2, 0, 1, 0, 0])


class TestSTE:
    def test_floor_ste(self):
        x = Tensor([0.9, -0.1], requires_grad=True)
        y = x.floor_ste()
        np.testing.assert_allclose(y.data, [0.0, -1.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(2))

    def test_clamp_ste_passes_grad_outside_range(self):
        x = Tensor([-5.0, 0.5, 5.0], requires_grad=True)
        x.clamp_ste(-1, 1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))


class TestGraphMechanics:
    def test_backward_on_non_scalar_requires_seed(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(GradError):
            (x * 2).backward()

    def test_backward_without_requires_grad(self):
        with pytest.raises(GradError):
            Tensor([1.0]).backward()

    def test_seed_gradient_shape_checked(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ShapeError):
            y.backward(np.ones(3))

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (a + b).backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_item_and_shape_properties(self):
        x = Tensor([[1.0, 2.0]])
        assert x.shape == (1, 2) and x.ndim == 2 and x.size == 2
        assert Tensor([3.5]).item() == 3.5
