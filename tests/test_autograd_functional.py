"""Tests for losses and stateless functions."""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        logits = Tensor(rng.normal(size=(6, 4)))
        probs = F.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)
        assert (probs > 0).all()

    def test_log_softmax_stable_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.log_softmax(logits).data
        np.testing.assert_allclose(out, np.log([[0.5, 0.5]]), atol=1e-9)

    def test_logsumexp_matches_scipy_convention(self, rng):
        x = rng.normal(size=(3, 5))
        ours = F.logsumexp(Tensor(x)).data
        expected = np.log(np.exp(x).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(ours, expected, atol=1e-12)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[20.0, -20.0], [-20.0, 20.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-8

    def test_uniform_prediction_log_c(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 0]))
        np.testing.assert_allclose(loss.item(), np.log(3), atol=1e-12)

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        labels = np.array([0, 2, 1, 1, 0])
        F.cross_entropy(logits, labels).backward()
        probs = F.softmax(Tensor(logits.data)).data
        expected = (probs - np.eye(3)[labels]) / 5
        np.testing.assert_allclose(logits.grad, expected, atol=1e-9)

    def test_class_weights_reweigh_loss(self):
        logits = Tensor(np.zeros((2, 2)))
        labels = np.array([0, 1])
        unweighted = F.cross_entropy(logits, labels).item()
        weighted = F.cross_entropy(logits, labels, class_weights=np.array([1.0, 3.0])).item()
        np.testing.assert_allclose(unweighted, weighted, atol=1e-12)  # symmetric case
        # Asymmetric case: wrong on the heavy class hurts more.
        logits2 = Tensor(np.array([[5.0, -5.0], [5.0, -5.0]]))
        loss_w = F.cross_entropy(logits2, labels, class_weights=np.array([1.0, 9.0])).item()
        loss_u = F.cross_entropy(logits2, labels).item()
        assert loss_w > loss_u

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((2, 2, 2))), np.array([0, 1]))
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 1, 0]))

    @pytest.mark.parametrize("weights", [None, np.array([1.0, 3.0])], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("label", [-1, 0.7, 2])
    def test_label_outside_classes_is_named(self, label, weights):
        # -1 used to index the last class, 0.7 truncated to class 0 and 2
        # raised a bare IndexError.
        logits = Tensor(np.array([[0.5, -1.0], [0.25, 2.0]]), requires_grad=True)
        with pytest.raises(ShapeError, match=rf"label {label} at row 1 .*\[0, 2\)"):
            F.cross_entropy(logits, [0, label], class_weights=weights)
