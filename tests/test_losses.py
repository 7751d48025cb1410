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


def ten_node_loss(p_hat, labels, weights):
    """The former ten-node form of au_detection_loss, kept as its oracle.

    It weights log(p) by y and log(1 - p) by 1 - y, which also serves soft
    labels; the current form gives bitwise the same loss and gradient for
    0/1 labels.
    """
    clamped = T.clamp(p_hat, losses.PROB_EPS, 1.0 - losses.PROB_EPS)
    log_p = T.log(clamped)
    log_q = T.log(T.scalar_add(T.scalar_mul(clamped, -1.0), 1.0))
    w_full = np.broadcast_to(weights, p_hat.shape)
    pos = T.mul(log_p, T.Tensor(labels * w_full))
    neg = T.mul(log_q, T.Tensor((1.0 - labels) * w_full))
    total = T.sum_all(T.add(pos, neg))
    return T.scalar_mul(total, -1.0 / (p_hat.size // p_hat.shape[-1]))


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

    @pytest.mark.parametrize("shape", [(6, 4), (2, 6, 4)])
    def test_bitwise_equal_to_ten_node_form(self, shape):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.0, 1.0, size=shape).reshape(-1)
        eps = losses.PROB_EPS
        # clamped at both ends, on the clamp bounds, and just inside them
        p[:10] = [0.0, 1e-12, eps, 2 * eps, 0.5, 1.0 - 2 * eps, 1.0 - eps, 1.0 - 1e-12,
                  1.0, 1e-3]
        p = p.reshape(shape)
        labels = (rng.random(shape) < 0.5).astype(np.float64)
        labels.reshape(-1)[:10] = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        weights = losses.class_weights(np.array([0.3, 0.1, 0.4, 0.2]))
        results = []
        for loss_fn in (losses.au_detection_loss, ten_node_loss):
            p_hat = T.Tensor(p, requires_grad=True)
            with T.Tape() as tape:
                loss = loss_fn(p_hat, labels, weights)
            tape.backward(loss)
            results.append((loss.data.tobytes(), tape.grad(p_hat).tobytes()))
        assert results[0] == results[1]

    def test_records_seven_tape_nodes(self):
        p_hat = T.Tensor(np.full((3, 2), 0.5), requires_grad=True)
        with T.Tape() as tape:
            losses.au_detection_loss(p_hat, np.eye(3, 2), np.full(2, 0.5))
        assert len(tape._nodes) == 7

    def test_gradients_only_for_tracked_tensors(self):
        # Labels and weights enter as constants: no gradient is computed or
        # kept for them.  The backward drops each node output's gradient once
        # used, so only the prediction's is left.
        p_hat = T.Tensor(np.full((3, 2), 0.4), requires_grad=True)
        with T.Tape() as tape:
            loss = losses.au_detection_loss(p_hat, np.eye(3, 2), np.full(2, 0.5))
        tape.backward(loss)
        assert set(tape.gradients) == {p_hat.id}

    @pytest.mark.parametrize("bad", [0.5, -1.0, 2.0])
    def test_non_binary_labels_rejected(self, bad):
        labels = np.zeros((2, 2))
        labels[1, 0] = bad
        with pytest.raises(DomainError):
            losses.au_detection_loss(T.Tensor(np.full((2, 2), 0.5)), labels, np.ones(2))

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
