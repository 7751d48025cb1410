"""Forward semantics of the tensor operations.

Expected values here are either counted by hand or checked against plain
numpy on inputs small enough to audit.
"""

import math

import numpy as np
import pytest

from aukit import tensor as T
from aukit.errors import DomainError, NumericalError, ShapeError


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(NumericalError):
            T.Tensor([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(NumericalError):
            T.Tensor([[float("inf")]])

    def test_data_is_float64_and_immutable(self):
        t = T.Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_shape_matches_data(self):
        t = T.Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.size == 24


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.Tensor(0.0)).item() == 0.5

    def test_tanh_at_zero(self):
        assert T.tanh(T.Tensor(0.0)).item() == 0.0

    def test_sigmoid_extreme_inputs_stay_finite(self):
        y = T.sigmoid(T.Tensor([-800.0, 800.0])).data
        assert np.all(np.isfinite(y))
        assert y[0] >= 0.0 and y[1] <= 1.0

    def test_log_domain(self):
        with pytest.raises(DomainError):
            T.log(T.Tensor([1.0, 0.0]))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor([1.0]), T.Tensor([1.0, 2.0]))

    def test_arithmetic_values(self):
        a = T.Tensor([1.0, 2.0])
        b = T.Tensor([3.0, 5.0])
        assert np.array_equal(T.add(a, b).data, [4.0, 7.0])
        assert np.array_equal(T.sub(a, b).data, [-2.0, -3.0])
        assert np.array_equal(T.mul(a, b).data, [3.0, 10.0])
        assert np.array_equal(T.scalar_mul(a, -2.0).data, [-2.0, -4.0])
        assert np.array_equal(T.scalar_add(a, 0.5).data, [1.5, 2.5])

    def test_clamp(self):
        y = T.clamp(T.Tensor([-1.0, 0.5, 2.0]), 0.0, 1.0)
        assert np.array_equal(y.data, [0.0, 0.5, 1.0])


class TestStructural:
    def test_concat_then_slice_is_identity(self):
        a = T.Tensor(rand((2, 3)))
        b = T.Tensor(rand((2, 5), seed=1))
        joined = T.concat([a, b], axis=1)
        assert np.array_equal(T.slice_axis(joined, 1, 0, 3).data, a.data)
        assert np.array_equal(T.slice_axis(joined, 1, 3, 8).data, b.data)

    def test_concat_preserves_order(self):
        a = T.Tensor([[1.0], [2.0]])
        b = T.Tensor([[3.0], [4.0]])
        assert np.array_equal(T.concat([a, b], axis=0).data, [[1], [2], [3], [4]])

    def test_slice_out_of_range(self):
        with pytest.raises(ShapeError):
            T.slice_axis(T.Tensor([1.0, 2.0]), 0, 0, 3)

    def test_reshape_transpose(self):
        a = T.Tensor(np.arange(6.0).reshape(2, 3))
        assert T.reshape(a, (3, 2)).shape == (3, 2)
        assert np.array_equal(T.transpose(a, (1, 0)).data, a.data.T)

    def test_matmul(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0], [6.0]])
        assert np.array_equal(T.matmul(a, b).data, [[17.0], [39.0]])
        with pytest.raises(ShapeError):
            T.matmul(a, T.Tensor([[1.0, 2.0]]))

    def test_graph_matmul_matches_loops(self):
        m = 4
        a = rand((m, m), seed=2)
        x = rand((3, 5, m), seed=3)
        got = T.graph_matmul(T.Tensor(a), T.Tensor(x)).data
        want = np.zeros_like(x)
        for c in range(3):
            for t in range(5):
                for j in range(m):
                    want[c, t, j] = sum(a[j, k] * x[c, t, k] for k in range(m))
        assert np.abs(got - want).max() < 1e-12

    def test_pad_edge_replicates(self):
        x = T.Tensor(np.arange(3.0)[None, :, None])  # (1, 3, 1)
        y = T.pad_edge(x, 1, 2, 1)
        assert np.array_equal(y.data[0, :, 0], [0, 0, 0, 1, 2, 2])


class TestBroadcastMulChannelwise:
    def test_ones_map_is_identity(self):
        feat = T.Tensor(rand((2, 4, 3, 3)))
        ones = T.Tensor.ones((2, 3, 3))
        assert np.array_equal(T.broadcast_mul_channelwise(ones, feat).data, feat.data)

    def test_scales_every_channel(self):
        feat = T.Tensor(np.ones((1, 2, 2, 2)))
        m = T.Tensor([[[0.5, 1.0], [2.0, 0.0]]])
        out = T.broadcast_mul_channelwise(m, feat).data
        for c in range(2):
            assert np.array_equal(out[0, c], m.data[0])


class TestConv2d:
    def test_overlap_counting_all_ones(self):
        # 3x3 all-ones input and kernel, pad 1: center sees the full 3x3
        # overlap (9 ones), corners see a 2x2 overlap (4 ones).
        x = T.Tensor(np.ones((1, 1, 3, 3)))
        k = T.Tensor(np.ones((1, 1, 3, 3)))
        b = T.Tensor.zeros((1,))
        y = T.conv2d(x, k, b, padding=(1, 1)).data[0, 0]
        assert y[1, 1] == 9.0
        assert y[0, 0] == 4.0 and y[2, 2] == 4.0
        assert y[0, 1] == 6.0

    def test_identity_kernel(self):
        x = T.Tensor(rand((1, 3, 5, 5)))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        y = T.conv2d(x, T.Tensor(k), T.Tensor.zeros((3,)))
        assert np.array_equal(y.data, x.data)

    def test_kernel_larger_than_input(self):
        x = T.Tensor(rand((1, 1, 2, 2)))
        k = T.Tensor(rand((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, k, T.Tensor.zeros((1,)))

    @pytest.mark.parametrize("padding", [(3, 0), (0, 3), (-1, 0), (0, -1)])
    def test_padding_outside_kernel_rejected(self, padding):
        x = T.Tensor(rand((1, 1, 8, 8)))
        k = T.Tensor(rand((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, k, T.Tensor.zeros((1,)), padding=padding)

    def test_batched_matches_per_frame(self):
        xs = rand((4, 2, 6, 6))
        k = T.Tensor(rand((3, 2, 3, 3), seed=1))
        b = T.Tensor(rand((3,), seed=2))
        batched = T.conv2d(T.Tensor(xs), k, b, padding=(1, 1)).data
        for i in range(4):
            single = T.conv2d(T.Tensor(xs[i : i + 1]), k, b, padding=(1, 1)).data
            assert np.abs(batched[i] - single[0]).max() < 1e-12

    def test_linearity(self):
        k = T.Tensor(rand((2, 3, 3, 3), seed=4))
        zero_b = T.Tensor.zeros((2,))
        x = rand((1, 3, 6, 6), seed=5)
        y = rand((1, 3, 6, 6), seed=6)
        lhs = T.conv2d(T.Tensor(2.5 * x - 1.5 * y), k, zero_b, padding=(1, 1)).data
        rhs = 2.5 * T.conv2d(T.Tensor(x), k, zero_b, padding=(1, 1)).data - 1.5 * T.conv2d(
            T.Tensor(y), k, zero_b, padding=(1, 1)
        ).data
        assert np.allclose(lhs, rhs, atol=1e-12, rtol=0)


class TestConv2dPerPatch:
    def test_matches_independent_conv_calls(self):
        grid, ci, co, size = 2, 2, 3, 4
        p = grid * grid
        x = rand((2, ci, grid * size, grid * size))
        k = rand((p, co, ci, 3, 3), seed=1)
        b = rand((p, co), seed=2)
        up = rand((2, co, grid * size, grid * size), seed=3)  # upstream gradient
        xs, ks, bs = (T.Tensor(a, requires_grad=True) for a in (x, k, b))
        with T.Tape() as tape:
            got = T.conv2d_per_patch(xs, ks, bs)
            tape.backward(T.sum_all(T.mul(got, T.Tensor(up))))
        for i in range(p):
            cell = (slice(None), slice(None),
                    slice(i // grid * size, (i // grid + 1) * size),
                    slice(i % grid * size, (i % grid + 1) * size))
            xi, ki, bi = (T.Tensor(a, requires_grad=True) for a in (x[cell], k[i], b[i]))
            with T.Tape() as single_tape:
                single = T.conv2d(xi, ki, bi, padding=(1, 1))
                single_tape.backward(T.sum_all(T.mul(single, T.Tensor(up[cell]))))
            assert np.abs(got.data[cell] - single.data).max() < 1e-12
            pairs = ((tape.grad(xs)[cell], xi), (tape.grad(ks)[i], ki), (tape.grad(bs)[i], bi))
            for whole, part in pairs:
                assert np.abs(whole - single_tape.grad(part)).max() < 1e-12

    def test_kernel_rank_rejected(self):
        x = T.Tensor(rand((1, 3, 4, 4)))
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(x, T.Tensor(rand((2, 3, 3, 3))), T.Tensor.zeros((2, 3)))

    def test_padding_outside_kernel_rejected(self):
        x = T.Tensor(rand((1, 3, 4, 4)))
        k = T.Tensor(rand((4, 3, 3, 1, 1)))
        with pytest.raises(ShapeError):  # a 1x1 kernel admits no padding
            T.conv2d_per_patch(x, k, T.Tensor.zeros((4, 3)))

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_patch_count_not_square_rejected(self, p):
        x = T.Tensor(rand((1, 2, 24, 24)))
        k = T.Tensor(rand((p, 3, 2, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(x, k, T.Tensor.zeros((p, 3)))

    @pytest.mark.parametrize("h, w", [(6, 8), (8, 6), (6, 6)])
    def test_map_not_divisible_by_grid_rejected(self, h, w):
        x = T.Tensor(rand((1, 2, h, w)))
        k = T.Tensor(rand((16, 3, 2, 1, 1)))
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(x, k, T.Tensor.zeros((16, 3)), padding=(0, 0))

    def test_bias_shape_rejected(self):
        x = T.Tensor(rand((1, 2, 4, 4)))
        k = T.Tensor(rand((4, 3, 2, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(x, k, T.Tensor.zeros((3,)))


class TestBatchOnly:
    """The convolution, pooling and gating ops take a leading batch axis only."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: T.conv2d(x, T.Tensor(rand((3, 2, 3, 3))), T.Tensor.zeros((3,))),
            lambda x: T.conv2d_per_patch(x, T.Tensor(rand((4, 3, 2, 3, 3))), T.Tensor.zeros((4, 3))),
            T.maxpool2d,
            T.global_avg_pool,
            lambda x: T.broadcast_mul_channelwise(T.Tensor.ones((4, 4)), x),
        ],
        ids=["conv2d", "conv2d_per_patch", "maxpool2d", "global_avg_pool",
             "broadcast_mul_channelwise"],
    )
    @pytest.mark.parametrize("shape", [(2, 4, 4), (1, 1, 2, 4, 4)])
    def test_other_ranks_rejected(self, call, shape):
        with pytest.raises(ShapeError):
            call(T.Tensor(rand(shape)))

    def test_channelwise_map_needs_batch_axis(self):
        with pytest.raises(ShapeError):
            T.broadcast_mul_channelwise(T.Tensor.ones((4, 4)), T.Tensor(rand((1, 2, 4, 4))))


def reference_conv(x, k, b, padding, up):
    """Direct correlation of an explicitly zero-padded (B, P, C_in, H, W)
    input with (P, C_out, C_in, k_h, k_w) kernels, one einsum per kernel
    offset, plus the gradients of sum(y * up) for the input, kernels and bias.
    """
    ph, pw = padding
    bsz, p, ci, h, w = x.shape
    kh, kw = k.shape[-2:]
    xp = np.zeros((bsz, p, ci, h + 2 * ph, w + 2 * pw))
    xp[..., ph:ph + h, pw:pw + w] = x
    oh, ow = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    y = np.zeros(up.shape) + b[None, :, :, None, None]
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for i in range(kh):
        for j in range(kw):
            window = xp[..., i:i + oh, j:j + ow]
            y += np.einsum("bpchw,poc->bpohw", window, k[..., i, j])
            dk[..., i, j] = np.einsum("bpohw,bpchw->poc", up, window)
            dxp[..., i:i + oh, j:j + ow] += np.einsum("bpohw,poc->bpchw", up, k[..., i, j])
    return y, dxp[..., ph:ph + h, pw:pw + w], dk, up.sum(axis=(0, 3, 4))


def paste(patches, grid):
    """(B, P, C, h, w) patches -> the (B, C, grid*h, grid*w) map they tile, row-major."""
    bsz, _, c, h, w = patches.shape
    out = np.zeros((bsz, c, grid * h, grid * w))
    for i in range(grid):
        for j in range(grid):
            out[:, :, i * h:(i + 1) * h, j * w:(j + 1) * w] = patches[:, i * grid + j]
    return out


class TestConvOracle:
    """Both public convolutions against the direct-loop reference.

    Patches are 5x6, so every map is non-square: 5x6 at P = 1, 10x12 at
    P = 4 and 20x24 at P = 16.  ``batch=None`` is the unbatched form, which
    the ops reject.
    """

    @pytest.mark.parametrize(
        "kernel, padding",
        [((1, 1), (0, 0)), ((3, 3), (0, 0)), ((3, 3), (1, 1)), ((1, 3), (0, 1)), ((3, 1), (1, 0))],
    )
    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize(
        "op, p",
        [("conv2d", 1), ("conv2d_per_patch", 1), ("conv2d_per_patch", 4),
         ("conv2d_per_patch", 16)],
    )
    def test_values_and_gradients(self, kernel, padding, batch, op, p):
        ci, co, h, w = 2, 3, 5, 6
        bsz = 1 if batch is None else batch
        x = rand((bsz, p, ci, h, w))
        k = rand((p, co, ci) + kernel, seed=1)
        b = rand((p, co), seed=2)
        oh, ow = h + 2 * padding[0] - kernel[0] + 1, w + 2 * padding[1] - kernel[1] + 1
        up = rand((bsz, p, co, oh, ow), seed=3)
        y, dx, dk, db = reference_conv(x, k, b, padding, up)

        # The ops take whole maps: paste the reference's patches into them.
        grid = math.isqrt(p)
        x, up, y, dx = (paste(a, grid) for a in (x, up, y, dx))
        if op == "conv2d":
            k, b, dk, db = k[0], b[0], dk[0], db[0]
        if batch is None:
            with pytest.raises(ShapeError):
                getattr(T, op)(T.Tensor(x[0]), T.Tensor(k), T.Tensor(b), padding=padding)
            return
        xs, ks, bs = (T.Tensor(a, requires_grad=True) for a in (x, k, b))
        with T.Tape() as tape:
            out = getattr(T, op)(xs, ks, bs, padding=padding)
            tape.backward(T.sum_all(T.mul(out, T.Tensor(up))))
        got = (out.data, tape.grad(xs), tape.grad(ks), tape.grad(bs))
        for g, expected in zip(got, (y, dx, dk, db)):
            assert g.shape == expected.shape
            assert np.abs(g - expected).max() < 1e-12


def attention_pool_oracle(maps, feat, kernels, bias, padding):
    """Per map j: gate, convolve and average with the existing ops."""
    b, m, h, w = maps.shape
    pooled = []
    for j in range(m):
        gate = T.reshape(T.slice_axis(maps, 1, j, j + 1), (b, h, w))
        k = T.reshape(T.slice_axis(kernels, 0, j, j + 1), kernels.shape[1:])
        bias_j = T.reshape(T.slice_axis(bias, 0, j, j + 1), bias.shape[1:])
        refined = T.conv2d(T.broadcast_mul_channelwise(gate, feat), k, bias_j, padding=padding)
        pooled.append(T.reshape(T.global_avg_pool(refined), (b, 1, -1)))
    return T.concat(pooled, axis=1)


class TestAttentionPool:
    """attention_pool equals gate -> conv2d -> global_avg_pool for every map."""

    @pytest.mark.parametrize(
        "kernel, padding",
        [((3, 3), (1, 1)), ((3, 3), (0, 0)), ((1, 1), (0, 0)), ((1, 3), (0, 1))],
    )
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("m", [1, 4])
    def test_matches_gated_conv_then_pool(self, kernel, padding, batch, m):
        c, co, h, w = 3, 2, 5, 7
        arrays = (
            rand((batch, m, h, w)),
            rand((batch, c, h, w), seed=1),
            rand((m, co, c) + kernel, seed=2),
            rand((m, co), seed=3),
        )
        up = T.Tensor(rand((batch, m, co), seed=4))
        results = []
        for op in (T.attention_pool, attention_pool_oracle):
            inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
            with T.Tape() as tape:
                out = op(*inputs, padding=padding)
                tape.backward(T.sum_all(T.mul(out, up)))
            results.append([out.data] + [tape.grad(t) for t in inputs])
        for got, expected in zip(*results):
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() < 1e-12

    def make(self, maps=(2, 3, 4, 5), feat=(2, 6, 4, 5), kernels=(3, 2, 6, 3, 3), bias=(3, 2)):
        return [T.Tensor(rand(shape, seed=i)) for i, shape in enumerate((maps, feat, kernels, bias))]

    @pytest.mark.parametrize(
        "shapes",
        [
            {"feat": (1, 6, 4, 5)},                                     # batch
            {"feat": (2, 6, 4, 6)},                                     # map size
            {"maps": (2, 2, 4, 5)},                                     # map count
            {"kernels": (3, 2, 5, 3, 3)},                               # kernel C
            {"bias": (3, 3)},
            {"bias": (2,)},
            {"maps": (3, 4, 5)},                                        # ranks
            {"feat": (6, 4, 5)},
            {"kernels": (2, 6, 3, 3)},
        ],
    )
    def test_mismatched_shapes_rejected(self, shapes):
        with pytest.raises(ShapeError):
            T.attention_pool(*self.make(**shapes), padding=(1, 1))

    @pytest.mark.parametrize("padding", [(3, 1), (1, 3), (-1, 0)])
    def test_padding_outside_kernel_rejected(self, padding):
        with pytest.raises(ShapeError):
            T.attention_pool(*self.make(), padding=padding)


class TestMaxPool:
    def test_two_by_two(self):
        y = T.maxpool2d(T.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert y.data.tolist() == [[[[4.0]]]]

    def test_constant_input_tie_gradient_goes_to_first_cell(self):
        x = T.Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        with T.Tape() as tape:
            y = T.maxpool2d(x)
            loss = T.sum_all(y)
            tape.backward(loss)
        g = tape.grad(x)
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, ::2, ::2] = 1.0  # first element of each 2x2 field
        assert np.array_equal(g, expected)

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            T.maxpool2d(T.Tensor(rand((1, 1, 3, 4))))


class TestGlobalAvgPool:
    def test_all_ones(self):
        y = T.global_avg_pool(T.Tensor(np.ones((1, 4, 2, 2))))
        assert np.array_equal(y.data, np.ones((1, 4)))

    def test_channel_mean(self):
        y = T.global_avg_pool(T.Tensor([[[[0.0, 2.0], [4.0, 6.0]]]]))
        assert y.data.tolist() == [[3.0]]


class TestPurity:
    def test_forward_is_bitwise_reproducible(self):
        x = rand((2, 3, 8, 8))
        k = rand((4, 3, 3, 3), seed=1)
        b = rand((4,), seed=2)

        def run():
            h = T.conv2d(T.Tensor(x), T.Tensor(k), T.Tensor(b), padding=(1, 1))
            h = T.maxpool2d(h)
            return T.global_avg_pool(T.sigmoid(h)).data

        assert np.array_equal(run(), run())

    def test_debug_checks_flag_catches_overflow(self):
        T.set_debug_checks(True)
        try:
            big = T.Tensor(np.full((2,), 1e308))
            with np.errstate(over="ignore"), pytest.raises(NumericalError):
                T.mul(big, big)
        finally:
            T.set_debug_checks(False)
