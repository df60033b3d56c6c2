"""Tests for the optimiser, gradient clipping and Module mechanics."""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.layers import Linear, ReLU, Sequential
from repro.autograd.module import Module, Parameter
from repro.autograd.optim import Adam, clip_grad_norm
from repro.autograd.tensor import Tensor
from repro.errors import ConfigError


def quadratic_param(start=5.0):
    return Parameter(np.array([start]))


def minimise(optimizer_factory, steps=200):
    p = quadratic_param()
    opt = optimizer_factory([p])
    for _ in range(steps):
        opt.zero_grad()
        ((p - 2.0) ** 2).sum().backward()
        opt.step()
    return float(p.data[0])


class TestOptimizers:
    def test_adam_minimises_quadratic(self):
        assert minimise(lambda ps: Adam(ps, lr=0.1)) == pytest.approx(2.0, abs=1e-2)

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ConfigError):
            Adam([quadratic_param()], lr=0.0)

    def test_step_skips_params_without_grad(self):
        p = quadratic_param()
        Adam([p], lr=0.1).step()  # no grads: must not raise
        assert p.data[0] == 5.0


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        p = Parameter(np.array([3.0, 4.0]))
        p.grad = np.array([3.0, 4.0])
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_clip_when_under(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        clip_grad_norm([p], max_norm=1.0)
        assert p.grad[0] == pytest.approx(0.5)

    def test_handles_no_grads(self):
        assert clip_grad_norm([quadratic_param()], 1.0) == 0.0


class TestModule:
    def test_named_parameters_depth_first(self):
        net = Sequential(Linear(2, 3, seed=1), ReLU(), Linear(3, 1, seed=2))
        names = [name for name, _ in net.named_parameters()]
        assert names == ["layers.0.weight", "layers.0.bias", "layers.2.weight", "layers.2.bias"]

    def test_num_parameters(self):
        net = Sequential(Linear(2, 3, seed=1))
        assert net.num_parameters() == 2 * 3 + 3

    def test_state_dict_roundtrip_changes_output(self, rng):
        net1 = Sequential(Linear(4, 2, seed=1))
        net2 = Sequential(Linear(4, 2, seed=99))
        x = rng.normal(size=(3, 4))
        assert not np.allclose(net1(Tensor(x)).data, net2(Tensor(x)).data)
        net2.load_state_dict(net1.state_dict())
        np.testing.assert_allclose(net1(Tensor(x)).data, net2(Tensor(x)).data)

    def test_load_state_dict_missing_key(self):
        net = Sequential(Linear(2, 2, seed=1))
        with pytest.raises(ConfigError):
            net.load_state_dict({})

    def test_load_state_dict_shape_mismatch(self):
        net = Sequential(Linear(2, 2, seed=1))
        state = net.state_dict()
        state["layers.0.weight"] = np.zeros((3, 3))
        with pytest.raises(ConfigError):
            net.load_state_dict(state)

    def test_zero_grad_clears_all(self, rng):
        net = Sequential(Linear(2, 2, seed=1))
        net(Tensor(rng.normal(size=(2, 2)))).sum().backward()
        assert net.parameters()[0].grad is not None
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_modules_iterates_tree(self):
        net = Sequential(Linear(2, 2), Sequential(Linear(2, 2)))
        kinds = [type(m).__name__ for m in net.modules()]
        assert kinds.count("Linear") == 2
        assert kinds.count("Sequential") == 2


class TestEndToEndLearning:
    def test_mlp_learns_xor(self):
        net = Sequential(Linear(2, 8, seed=3), ReLU(), Linear(8, 2, seed=4))
        opt = Adam(net.parameters(), lr=0.05)
        features = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        labels = np.array([0, 1, 1, 0])
        for _ in range(300):
            opt.zero_grad()
            F.cross_entropy(net(Tensor(features)), labels).backward()
            opt.step()
        np.testing.assert_array_equal(net(Tensor(features)).data.argmax(axis=1), labels)
