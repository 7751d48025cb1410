"""Tape mechanics and gradient correctness against the finite-difference oracle."""

import numpy as np
import pytest

from aukit import tensor as T
from aukit.errors import DomainError, ShapeError


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestTape:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor(rand((3, 4)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(x)
            tape.backward(loss)
        assert np.array_equal(tape.grad(x), np.ones((3, 4)))

    def test_zero_times_x_has_zero_gradient(self):
        x = T.Tensor(rand((5,)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(T.scalar_mul(x, 0.0))
            tape.backward(loss)
        assert np.array_equal(tape.grad(x), np.zeros(5))

    def test_backward_rejects_non_scalar(self):
        x = T.Tensor(rand((3,)), requires_grad=True)
        with T.Tape() as tape:
            y = T.scalar_mul(x, 2.0)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_gradient_shape_matches_value_shape(self):
        shapes = [(2,), (3, 4), (2, 3, 4)]
        for shape in shapes:
            x = T.Tensor(rand(shape), requires_grad=True)
            with T.Tape() as tape:
                tape.backward(T.mean_all(T.sigmoid(x)))
            assert tape.grad(x).shape == shape

    def test_constants_are_not_recorded(self):
        a = T.Tensor(rand((4,)))
        with T.Tape() as tape:
            T.sigmoid(a)  # no tracked input anywhere
        assert tape._nodes == []

    def test_fan_out_accumulates(self):
        # loss = sum(x * x) has gradient 2x through two uses of x.
        x = T.Tensor(rand((4,)), requires_grad=True)
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.mul(x, x)))
        assert np.allclose(tape.grad(x), 2 * x.data, atol=0, rtol=0)

    def test_shared_first_gradient_is_not_added_into(self):
        # add hands one array to both inputs; a's later accumulation must
        # not write through it into b's gradient.
        a = T.Tensor(rand((3,)), requires_grad=True)
        b = T.Tensor(rand((3,), seed=1), requires_grad=True)
        with T.Tape() as tape:
            doubled = T.scalar_mul(a, 2.0)
            both = T.add(a, b)
            tape.backward(T.add(T.sum_all(both), T.sum_all(doubled)))
        assert np.array_equal(tape.grad(b), np.ones(3))
        assert np.array_equal(tape.grad(a), np.full(3, 3.0))

    @pytest.mark.parametrize(
        "op, kernel_shape, bias_shape",
        [("conv2d", (3, 2, 3, 3), (3,)), ("conv2d_per_patch", (4, 3, 2, 3, 3), (4, 3))],
    )
    def test_untracked_conv_input_gets_no_gradient(self, op, kernel_shape, bias_shape):
        x = rand((2, 2, 8, 8))
        k = T.Tensor(rand(kernel_shape, 1), requires_grad=True)
        b = T.Tensor(rand(bias_shape, 2), requires_grad=True)

        def step(track):
            xs = T.Tensor(x, requires_grad=track)
            with T.Tape() as tape:
                tape.backward(T.sum_all(T.tanh(getattr(T, op)(xs, k, b, padding=(1, 1)))))
            return tape, xs

        untracked, x_off = step(False)
        tracked, x_on = step(True)
        assert x_off.id not in untracked.gradients
        assert tracked.grad(x_on).shape == x.shape
        for param in (k, b):
            assert untracked.grad(param).tobytes() == tracked.grad(param).tobytes()

    def test_independent_tapes_do_not_interfere(self):
        x = T.Tensor(rand((3,)), requires_grad=True)
        with T.Tape() as t1:
            t1.backward(T.sum_all(x))
        with T.Tape() as t2:
            t2.backward(T.sum_all(T.scalar_mul(x, 3.0)))
        assert np.array_equal(t1.grad(x), np.ones(3))
        assert np.array_equal(t2.grad(x), 3 * np.ones(3))


class TestGradCheckOracle:
    def test_quadratic_is_exact_under_central_differences(self):
        # f(x) = x^2 at x = 3: analytic 6, central difference 6 exactly.
        err = T.grad_check(lambda x: T.sum_all(T.mul(x, x)), T.Tensor(3.0))
        assert err < 1e-9

    def test_sigmoid_sum_self_test(self):
        err = T.grad_check(
            lambda x: T.sum_all(T.sigmoid(x)), T.Tensor(rand((6,))), eps=1e-6
        )
        assert err < 1e-8

    def test_rejects_non_scalar_function(self):
        with pytest.raises(ShapeError):
            T.grad_check(lambda x: T.scalar_mul(x, 2.0), T.Tensor(rand((3,))))

    def test_rejects_bad_eps(self):
        with pytest.raises(DomainError):
            T.grad_check(lambda x: T.sum_all(x), T.Tensor(rand((3,))), eps=0.0)


# Per-op gradient checks on at least three shapes each, random tie-free inputs.


def check_shapes(make_fn, shaped_points, eps=1e-6, tol=1e-6):
    for seed, points in enumerate(shaped_points):
        tensors = [T.Tensor(p) for p in points]
        err = T.grad_check(make_fn(*tensors), tensors, eps=eps)
        assert err < tol, f"shape set {seed}: error {err}"


class TestPerOpGradients:
    def test_add_mul_sub(self):
        for shape in [(3,), (2, 4), (2, 3, 2)]:
            a, b = rand(shape, 1), rand(shape, 2)

            def fn(x, y):
                return T.sum_all(T.mul(T.add(x, y), T.sub(x, y)))

            err = T.grad_check(fn, [T.Tensor(a), T.Tensor(b)])
            assert err < 1e-6

    def test_scalar_ops_log_clamp(self):
        for shape in [(4,), (3, 3), (2, 2, 3)]:
            x = np.abs(rand(shape)) + 0.5

            def fn(t):
                return T.sum_all(T.log(T.scalar_add(T.scalar_mul(t, 2.0), 0.25)))

            err = T.grad_check(fn, T.Tensor(x))
            assert err < 1e-6

    def test_sigmoid_tanh(self):
        for shape in [(5,), (2, 6), (3, 2, 2)]:
            x = rand(shape, 3)
            err = T.grad_check(
                lambda t: T.mean_all(T.mul(T.sigmoid(t), T.tanh(t))), T.Tensor(x)
            )
            assert err < 1e-6

    def test_concat_slice(self):
        for shape in [(2, 3), (4, 2), (3, 5)]:
            a, b = rand(shape, 4), rand(shape, 5)

            def fn(x, y):
                j = T.concat([x, y], axis=1)
                return T.sum_all(T.mul(j, j))

            err = T.grad_check(fn, [T.Tensor(a), T.Tensor(b)])
            assert err < 1e-6

            def fn_slice(x):
                return T.sum_all(T.slice_axis(x, 1, 1, shape[1]))

            assert T.grad_check(fn_slice, T.Tensor(a)) < 1e-6

    def test_reshape_transpose(self):
        x = rand((2, 3, 4), 6)

        def fn(t):
            r = T.reshape(t, (6, 4))
            tr = T.transpose(r, (1, 0))
            return T.sum_all(T.mul(tr, tr))

        assert T.grad_check(fn, T.Tensor(x)) < 1e-6

    def test_matmul(self):
        for shapes in [((2, 3), (3, 2)), ((4, 4), (4, 1)), ((1, 5), (5, 3))]:
            a, b = rand(shapes[0], 7), rand(shapes[1], 8)

            def fn(x, y):
                return T.sum_all(T.sigmoid(T.matmul(x, y)))

            assert T.grad_check(fn, [T.Tensor(a), T.Tensor(b)]) < 1e-6

    def test_broadcast_mul_channelwise(self):
        for b, c, h, w in [(1, 2, 3, 3), (2, 4, 2, 5), (3, 1, 4, 4)]:
            m, f = rand((b, h, w), 9), rand((b, c, h, w), 10)

            def fn(mm, ff):
                return T.sum_all(T.broadcast_mul_channelwise(T.sigmoid(mm), ff))

            assert T.grad_check(fn, [T.Tensor(m), T.Tensor(f)]) < 1e-6

    def test_pad_edge(self):
        for shape, axis in [((2, 4), 1), ((3, 2, 3), 1), ((2, 5, 2), 2)]:
            x = rand(shape, 11)

            def fn(t):
                p = T.pad_edge(t, axis, 2, 2)
                return T.sum_all(T.mul(p, p))

            assert T.grad_check(fn, T.Tensor(x)) < 1e-6

    def test_graph_matmul(self):
        for m, extra in [(3, (2, 4)), (4, (1, 2)), (5, (2, 2))]:
            a = rand((m, m), 12)
            x = rand(extra + (m,), 13)

            def fn(aa, xx):
                return T.sum_all(T.tanh(T.graph_matmul(aa, xx)))

            assert T.grad_check(fn, [T.Tensor(a), T.Tensor(x)]) < 1e-6

    def test_conv2d(self):
        # random 2x4x6x6 input, 3x4x3x3 kernels against finite differences
        x = rand((2, 4, 6, 6), 14)
        k = rand((3, 4, 3, 3), 15)
        b = rand((3,), 16)

        def fn(xx, kk, bb):
            return T.sum_all(T.sigmoid(T.conv2d(xx, kk, bb, padding=(1, 1))))

        err = T.grad_check(fn, [T.Tensor(x), T.Tensor(k), T.Tensor(b)], eps=1e-6)
        assert err < 1e-6

    def test_conv2d_per_patch(self):
        # a 2x2 grid of 4x4 patches over two 8x8 maps
        x = rand((2, 2, 8, 8), 20)
        k = rand((4, 2, 2, 3, 3), 21)
        b = rand((4, 2), 22)

        def fn(xx, kk, bb):
            return T.sum_all(T.tanh(T.conv2d_per_patch(xx, kk, bb)))

        assert T.grad_check(fn, [T.Tensor(x), T.Tensor(k), T.Tensor(b)]) < 1e-6

    def test_attention_pool(self):
        # two 3x4 gated maps over a batch of two, 3x3 kernels at padding 1
        maps = rand((2, 2, 3, 4), 29)
        feat = rand((2, 3, 3, 4), 30)
        k = rand((2, 2, 3, 3, 3), 31)
        b = rand((2, 2), 32)

        def fn(mm, ff, kk, bb):
            pooled = T.attention_pool(T.sigmoid(mm), ff, kk, bb, padding=(1, 1))
            return T.sum_all(T.tanh(pooled))

        tensors = [T.Tensor(a) for a in (maps, feat, k, b)]
        assert T.grad_check(fn, tensors) < 1e-6

    def test_maxpool_away_from_ties(self):
        # random 1x3x8x8: continuous random values are tie-free a.s.
        x = rand((1, 3, 8, 8), 23)

        def fn(t):
            return T.sum_all(T.sigmoid(T.maxpool2d(t)))

        assert T.grad_check(fn, T.Tensor(x)) < 1e-6

    def test_global_avg_pool_gradient_is_uniform(self):
        x = T.Tensor(rand((2, 3, 4, 4), 24), requires_grad=True)
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.global_avg_pool(x)))
        assert np.allclose(tape.grad(x), 1.0 / 16.0, atol=0, rtol=0)
        assert T.grad_check(lambda t: T.sum_all(T.global_avg_pool(t)), x) < 1e-6

    def test_composite_network(self):
        # conv -> pool -> channel attention -> gap -> matmul head: one loss
        # through many op kinds at once.
        x = rand((1, 2, 8, 8), 25)
        k = rand((4, 2, 3, 3), 26)
        b = rand((4,), 27)
        w = rand((4, 1), 28)

        def fn(xx, kk, bb, ww):
            h = T.conv2d(xx, kk, bb, padding=(1, 1))
            h = T.maxpool2d(h)
            gate = T.sigmoid(T.slice_axis(h, 1, 0, 1))
            gated = T.broadcast_mul_channelwise(T.reshape(gate, (1, 4, 4)), h)
            pooled = T.global_avg_pool(gated)
            logit = T.matmul(pooled, ww)
            return T.sum_all(T.sigmoid(logit))

        err = T.grad_check(fn, [T.Tensor(x), T.Tensor(k), T.Tensor(b), T.Tensor(w)])
        assert err < 1e-6
