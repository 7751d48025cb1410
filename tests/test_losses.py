import math

import numpy as np
import pytest

from aukit import losses
from aukit import tensor as T
from aukit.errors import DomainError, ShapeError


def loss_oracle(p_hat, labels, weights):
    """Scalar-loop cross-entropy, independent of the tensor library."""
    t, m = p_hat.shape
    eps = losses.PROB_EPS
    total = 0.0
    for i in range(t):
        for j in range(m):
            q = min(max(p_hat[i, j], eps), 1.0 - eps)
            total += weights[j] * (
                labels[i, j] * math.log(q) + (1.0 - labels[i, j]) * math.log(1.0 - q)
            )
    return -total / t


class TestClassWeights:
    def test_uniform_rates(self):
        w = losses.class_weights(np.full(4, 0.25))
        assert np.allclose(w, 0.25, atol=1e-15)

    def test_inverse_frequency(self):
        w = losses.class_weights(np.array([0.5, 0.25, 0.25]))
        assert np.abs(w - [0.2, 0.4, 0.4]).max() < 1e-15

    def test_zero_rate_clamped(self):
        w = losses.class_weights(np.array([0.0, 0.5]))
        inv = np.array([1.0 / losses.RATE_EPS, 2.0])
        assert np.allclose(w, inv / inv.sum(), atol=1e-15)

    def test_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        rates = rng.uniform(0.01, 1.0, size=8)
        w = losses.class_weights(rates)
        assert abs(w.sum() - 1.0) < 1e-12
        assert (w > 0).all()

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            losses.class_weights(np.array([-0.1, 0.5]))


class TestDetectionLoss:
    def test_single_cell_ln2(self):
        loss = losses.au_detection_loss(
            T.Tensor([[0.5]]), np.array([[1.0]]), np.array([1.0])
        )
        assert abs(loss.item() - math.log(2.0)) < 1e-15

    def test_perfect_prediction_near_zero(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = losses.au_detection_loss(
            T.Tensor(labels), labels, np.full(2, 0.5)
        )
        assert 0.0 < loss.item() < 1e-6

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        p_hat = rng.uniform(0.05, 0.95, size=(4, 3))
        labels = (rng.random((4, 3)) < 0.5).astype(np.float64)
        weights = losses.class_weights(np.array([0.3, 0.5, 0.2]))
        got = losses.au_detection_loss(T.Tensor(p_hat), labels, weights).item()
        assert abs(got - loss_oracle(p_hat, labels, weights)) < 1e-12

    def test_batch_average(self):
        rng = np.random.default_rng(2)
        p_hat = rng.uniform(0.1, 0.9, size=(3, 4, 2))
        labels = (rng.random((3, 4, 2)) < 0.5).astype(np.float64)
        weights = np.full(2, 0.5)
        got = losses.au_detection_loss(T.Tensor(p_hat), labels, weights).item()
        per_seq = [loss_oracle(p_hat[b], labels[b], weights) for b in range(3)]
        assert abs(got - sum(per_seq) / 3.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.au_detection_loss(
                T.Tensor(np.full((2, 2), 0.5)), np.zeros((2, 3)), np.ones(2)
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        labels = (rng.random((3, 2)) < 0.5).astype(np.float64)
        weights = losses.class_weights(np.array([0.4, 0.6]))

        def f(p_hat):
            return losses.au_detection_loss(p_hat, labels, weights)

        err = T.grad_check(f, [T.Tensor(rng.uniform(0.2, 0.8, size=(3, 2)))])
        assert err < 1e-6


class TestStageLoss:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.p_hat = rng.uniform(0.1, 0.9, size=(4, 3))
        self.labels = (rng.random((4, 3)) < 0.5).astype(np.float64)
        self.weights = losses.class_weights(np.array([0.25, 0.5, 0.25]))
        self.attention = rng.uniform(0.05, 0.95, size=(4, 3, 8, 8))

    def run_loss(self, lambda_r):
        return losses.attention_stage_loss(
            T.Tensor(self.p_hat),
            T.Tensor(self.attention),
            self.labels,
            self.weights,
            lambda_r,
        ).item()

    def test_zero_lambda_equals_detection_loss(self):
        detection = losses.au_detection_loss(
            T.Tensor(self.p_hat), self.labels, self.weights
        ).item()
        assert self.run_loss(0.0) == detection

    def test_matches_scalar_oracle(self):
        lambda_r = 1e-4
        t, m = self.p_hat.shape
        reg = 0.0
        for i in range(t):
            for j in range(m):
                reg += self.attention[i, j].mean()
        want = loss_oracle(self.p_hat, self.labels, self.weights) + lambda_r * reg / (m * t)
        assert abs(self.run_loss(lambda_r) - want) < 1e-12

    def test_monotone_in_lambda(self):
        values = [self.run_loss(lam) for lam in (0.0, 1e-4, 1e-2, 1.0)]
        assert values == sorted(values)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            self.run_loss(-1e-4)
