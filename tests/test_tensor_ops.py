"""Forward semantics of the tensor operations.

Expected values here are either counted by hand or checked against plain
numpy on inputs small enough to audit.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import InlineExecutor
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


def batch_last(a):
    """(B, C, H, W) -> the ops' batch-last (C, H, W, B)."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


class TestConv2d:
    def test_overlap_counting_all_ones(self):
        # 3x3 all-ones input and kernel, pad 1: center sees the full 3x3
        # overlap (9 ones), corners see a 2x2 overlap (4 ones).
        x = T.Tensor(np.ones((1, 3, 3, 3)))
        k = T.Tensor(np.ones((1, 1, 3, 3)))
        b = T.Tensor.zeros((1,))
        y = T.conv2d(x, k, b, padding=(1, 1)).data[0]
        for frame in range(3):
            assert y[1, 1, frame] == 9.0
            assert y[0, 0, frame] == 4.0 and y[2, 2, frame] == 4.0
            assert y[0, 1, frame] == 6.0

    def test_identity_kernel(self):
        x = T.Tensor(rand((3, 5, 5, 3)))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        y = T.conv2d(x, T.Tensor(k), T.Tensor.zeros((3,)))
        assert np.array_equal(y.data, x.data)

    def test_kernel_larger_than_input(self):
        x = T.Tensor(rand((1, 2, 2, 3)))
        k = T.Tensor(rand((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, k, T.Tensor.zeros((1,)))

    @pytest.mark.parametrize("padding", [(3, 0), (0, 3), (-1, 0), (0, -1)])
    def test_padding_outside_kernel_rejected(self, padding):
        x = T.Tensor(rand((1, 8, 8, 3)))
        k = T.Tensor(rand((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, k, T.Tensor.zeros((1,)), padding=padding)

    def test_batched_matches_per_frame(self):
        xs = rand((2, 6, 6, 4))
        k = T.Tensor(rand((3, 2, 3, 3), seed=1))
        b = T.Tensor(rand((3,), seed=2))
        batched = T.conv2d(T.Tensor(xs), k, b, padding=(1, 1)).data
        for i in range(4):
            single = T.conv2d(T.Tensor(xs[..., i : i + 1]), k, b, padding=(1, 1)).data
            assert np.abs(batched[..., i] - single[..., 0]).max() < 1e-12

    def test_linearity(self):
        k = T.Tensor(rand((2, 3, 3, 3), seed=4))
        zero_b = T.Tensor.zeros((2,))
        x = rand((3, 6, 6, 3), seed=5)
        y = rand((3, 6, 6, 3), seed=6)
        lhs = T.conv2d(T.Tensor(2.5 * x - 1.5 * y), k, zero_b, padding=(1, 1)).data
        rhs = 2.5 * T.conv2d(T.Tensor(x), k, zero_b, padding=(1, 1)).data - 1.5 * T.conv2d(
            T.Tensor(y), k, zero_b, padding=(1, 1)
        ).data
        assert np.allclose(lhs, rhs, atol=1e-12, rtol=0)


class TestConv2dPerPatch:
    def test_matches_independent_conv_calls(self):
        grid, ci, co, size, batch = 8, 2, 3, 3, 3
        p = grid * grid
        x = rand((ci, grid * size, grid * size, batch))
        k = rand((p, co, ci, 3, 3), seed=1)
        b = rand((p, co), seed=2)
        up = rand((co, grid * size, grid * size, batch), seed=3)  # upstream gradient
        xs, ks, bs = (T.Tensor(a, requires_grad=True) for a in (x, k, b))
        with T.Tape() as tape:
            got = T.conv2d_per_patch(xs, ks, bs)
            tape.backward(T.sum_all(T.mul(got, T.Tensor(up))))
        for i in range(p):
            cell = (slice(None),
                    slice(i // grid * size, (i // grid + 1) * size),
                    slice(i % grid * size, (i % grid + 1) * size),
                    slice(None))
            xi, ki, bi = (T.Tensor(a, requires_grad=True) for a in (x[cell], k[i], b[i]))
            with T.Tape() as single_tape:
                single = T.conv2d(xi, ki, bi, padding=(1, 1))
                single_tape.backward(T.sum_all(T.mul(single, T.Tensor(up[cell]))))
            assert np.abs(got.data[cell] - single.data).max() < 1e-12
            pairs = ((tape.grad(xs)[cell], xi), (tape.grad(ks)[i], ki), (tape.grad(bs)[i], bi))
            for whole, part in pairs:
                assert np.abs(whole - single_tape.grad(part)).max() < 1e-12

    def test_kernel_rank_rejected(self):
        x = T.Tensor(rand((3, 4, 4, 1)))
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(x, T.Tensor(rand((2, 3, 3, 3))), T.Tensor.zeros((2, 3)))

    def test_padding_outside_kernel_rejected(self):
        x = T.Tensor(rand((3, 4, 4, 1)))
        k = T.Tensor(rand((4, 3, 3, 1, 1)))
        with pytest.raises(ShapeError):  # a 1x1 kernel admits no padding
            T.conv2d_per_patch(x, k, T.Tensor.zeros((4, 3)))

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_patch_count_not_square_rejected(self, p):
        x = T.Tensor(rand((2, 24, 24, 1)))
        k = T.Tensor(rand((p, 3, 2, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(x, k, T.Tensor.zeros((p, 3)))

    @pytest.mark.parametrize("h, w", [(6, 8), (8, 6), (6, 6)])
    def test_map_not_divisible_by_grid_rejected(self, h, w):
        x = T.Tensor(rand((2, h, w, 1)))
        k = T.Tensor(rand((16, 3, 2, 1, 1)))
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(x, k, T.Tensor.zeros((16, 3)), padding=(0, 0))

    def test_bias_shape_rejected(self):
        x = T.Tensor(rand((2, 4, 4, 1)))
        k = T.Tensor(rand((4, 3, 2, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(x, k, T.Tensor.zeros((3,)))


class TestBatchOnly:
    """The convolution, pooling and gating ops take a batch axis only."""

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
    """(B, P, C, h, w) patches -> the batch-last (C, grid*h, grid*w, B) map
    they tile, row-major."""
    bsz, _, c, h, w = patches.shape
    out = np.zeros((bsz, c, grid * h, grid * w))
    for i in range(grid):
        for j in range(grid):
            out[:, :, i * h:(i + 1) * h, j * w:(j + 1) * w] = patches[:, i * grid + j]
    return batch_last(out)


# Geometries of the convolution oracle: patches are 5x6, so every map is
# non-square: 5x6 at P = 1, 10x12 at P = 4, 20x24 at P = 16 and 40x48 at
# P = 64 (the 8x8 grid).
CONV_KERNELS = [((1, 1), (0, 0)), ((3, 3), (0, 0)), ((3, 3), (1, 1)), ((1, 3), (0, 1)),
                ((3, 1), (1, 0))]
CONV_OPS = [("conv2d", 1), ("conv2d_per_patch", 1), ("conv2d_per_patch", 4),
            ("conv2d_per_patch", 16), ("conv2d_per_patch", 64)]


class TestConvOracle:
    """Both public convolutions against the direct-loop reference.

    ``batch=None`` is the unbatched form, which the ops reject.  Every frame
    of a batch has its own values, so a column taken from the wrong frame
    shows.
    """

    @pytest.mark.parametrize("kernel, padding", CONV_KERNELS)
    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize("op, p", CONV_OPS)
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
                getattr(T, op)(T.Tensor(x[..., 0]), T.Tensor(k), T.Tensor(b), padding=padding)
            return
        xs, ks, bs = (T.Tensor(a, requires_grad=True) for a in (x, k, b))
        with T.Tape() as tape:
            out = getattr(T, op)(xs, ks, bs, padding=padding)
            tape.backward(T.sum_all(T.mul(out, T.Tensor(up))))
        got = (out.data, tape.grad(xs), tape.grad(ks), tape.grad(bs))
        for g, expected in zip(got, (y, dx, dk, db)):
            assert g.shape == expected.shape
            assert np.abs(g - expected).max() < 1e-12


class TestConvBackward:
    """What the convolution backward computes and keeps, beyond its values."""

    @pytest.mark.parametrize("kernel, padding", CONV_KERNELS)
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("op, p", CONV_OPS)
    @pytest.mark.parametrize("ci, co", [(2, 3), (3, 2)])
    def test_kernel_gradients_do_not_depend_on_tracking_the_input(
        self, ci, co, op, p, batch, kernel, padding
    ):
        # The kernel gradient comes from the input's windows when C_in < C_out
        # and from the output gradient's otherwise.  Either way a frame or a
        # frozen feature, which gets no input gradient, gets the kernel and
        # bias gradients of a tracked input bit for bit.
        h, w = 5, 6
        oh, ow = h + 2 * padding[0] - kernel[0] + 1, w + 2 * padding[1] - kernel[1] + 1
        x = rand((batch, p, ci, h, w))
        k = rand((p, co, ci) + kernel, seed=1)
        b = rand((p, co), seed=2)
        up = rand((batch, p, co, oh, ow), seed=3)
        _, _, dk, db = reference_conv(x, k, b, padding, up)
        grid = math.isqrt(p)
        x, up = paste(x, grid), T.Tensor(paste(up, grid))
        if op == "conv2d":
            k, b, dk, db = k[0], b[0], dk[0], db[0]
        grads = []
        for track in (False, True):
            xs = T.Tensor(x, requires_grad=track)
            ks, bs = T.Tensor(k, requires_grad=True), T.Tensor(b, requires_grad=True)
            with T.Tape() as tape:
                out = getattr(T, op)(xs, ks, bs, padding=padding)
                tape.backward(T.sum_all(T.mul(out, up)))
            assert (tape.grad(xs) is not None) == track
            assert np.abs(tape.grad(ks) - dk).max() < 1e-12
            assert np.abs(tape.grad(bs) - db).max() < 1e-12
            grads.append((tape.grad(ks).tobytes(), tape.grad(bs).tobytes()))
        assert grads[0] == grads[1]

    @pytest.mark.parametrize(
        "op, kernel_shape, bias_shape",
        [("conv2d", (8, 8, 3, 3), (8,)), ("conv2d_per_patch", (16, 8, 8, 3, 3), (16, 8))],
    )
    def test_recorded_forward_keeps_no_window_matrix(self, op, kernel_shape, bias_shape):
        # The 3x3 window matrix is 9x the padded input (1,179,648 B here);
        # the node may keep little beyond its output.
        conv = getattr(T, op)
        x = T.Tensor(rand((8, 32, 32, 2)), requires_grad=True)
        k = T.Tensor(rand(kernel_shape, 1), requires_grad=True)
        b = T.Tensor(rand(bias_shape, 2), requires_grad=True)
        with T.Tape():
            # First-call allocations, the thread's window buffer among
            # them, are not the node's.
            conv(x, k, b, padding=(1, 1))
        with T.Tape() as tape:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = conv(x, k, b, padding=(1, 1))
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(tape._nodes) == 1
            assert retained < 2 * out.data.nbytes
            tape.backward(T.sum_all(out))
        assert tape._nodes == []
        assert tape.grad(x).shape == x.shape


class TestSplitConvolution:
    """A large per-patch convolution runs grid rows [0, g//2) on the caller
    and [g//2, g) on the worker, each half in blocks of patches: every output
    and gradient byte must be the one the whole-grid call gives."""

    def run(self, monkeypatch, split, block, grid, ci, co, kernel, padding, track, fused):
        """Output and gradient bytes, and the rows each handed to the worker.

        ``block`` is ``BLOCK_VALUES``; ``fused`` runs the op with its own tanh,
        ``fused=None`` as ``tanh(op(...))``, two nodes, and False without tanh.
        Grid 1 is a whole-map ``conv2d``.
        """
        monkeypatch.setattr(T, "SPLIT_MACS", 0 if split else math.inf)
        monkeypatch.setattr(T, "BLOCK_VALUES", block)
        halves, submit = [], T.submit
        monkeypatch.setattr(T, "submit", lambda fn, *rows: halves.append(rows) or submit(fn, *rows))
        h = 4 * grid
        banks = () if grid == 1 else (grid * grid,)
        op = T.conv2d if grid == 1 else T.conv2d_per_patch
        x = T.Tensor(rand((ci, h, h, 2)), requires_grad=track)
        k = T.Tensor(rand(banks + (co, ci) + kernel, 1), requires_grad=True)
        b = T.Tensor(rand(banks + (co,), 2), requires_grad=True)
        oh = h + grid * (2 * padding[0] - kernel[0] + 1)
        with T.Tape() as tape:
            if fused is None:
                out = T.tanh(op(x, k, b, padding=padding))
            else:
                out = op(x, k, b, padding=padding, tanh=fused)
            tape.backward(T.sum_all(T.mul(out, T.Tensor(rand((co, oh, oh, 2), 3)))))
        assert (tape.grad(x) is not None) == track
        monkeypatch.setattr(T, "submit", submit)
        grads = [tape.grad(t) for t in (x, k, b) if tape.grad(t) is not None]
        return [a.tobytes() for a in (out.data, *grads)], halves

    @pytest.mark.parametrize("worker", ["thread", "inline"])
    @pytest.mark.parametrize("track", [False, True])
    @pytest.mark.parametrize("kernel, padding", [((3, 3), (1, 1)), ((3, 3), (0, 0)),
                                                 ((1, 1), (0, 0))])
    @pytest.mark.parametrize("ci, co", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("grid", [1, 2, 4, 8])
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("block", [1, math.inf])  # one patch per block, each half one block
    def test_halves_give_the_bytes_of_the_whole_grid(
        self, monkeypatch, block, fused, grid, ci, co, kernel, padding, track, worker
    ):
        # C_in < C_out and C_in >= C_out take the two kernel-gradient branches.
        # The fused tanh is checked against the unfused op followed by T.tanh.
        if worker == "inline":
            monkeypatch.setattr(T, "_POOL", InlineExecutor())
        whole, none = self.run(monkeypatch, False, math.inf, grid, ci, co, kernel, padding, track,
                               None if fused else False)
        halves, split = self.run(monkeypatch, True, block, grid, ci, co, kernel, padding, track,
                                 fused)
        assert none == [] and split == ([(grid // 2, grid)] * 2 if grid > 1 else [])
        assert halves == whole

    @pytest.mark.parametrize("grid", [1, 2, 4, 8])
    @pytest.mark.parametrize("per_patch", [1, 700, 30_000, 70_000, 300_000])
    @pytest.mark.parametrize("rows", [(0, None), (0, "half"), ("half", None)])
    def test_blocks_tile_the_rows_in_order(self, grid, per_patch, rows):
        r0, r1 = (grid // 2 if r == "half" else r for r in rows)
        r1 = grid if r1 is None else r1
        blocks = T._blocks(grid, (r0, r1), per_patch)
        assert [p for _, _, at in blocks for p in range(at.start, at.stop)] == list(
            range(r0 * grid, r1 * grid))
        for rs, cs, at in blocks:
            whole_rows = cs == slice(0, grid)
            assert whole_rows or rs.stop - rs.start == 1  # whole rows, or a run within one
            assert at == slice(rs.start * grid + cs.start, (rs.stop - 1) * grid + cs.stop)
            n = at.stop - at.start
            assert n == 1 or n * per_patch <= T.BLOCK_VALUES
            assert whole_rows == (grid * per_patch <= T.BLOCK_VALUES or grid == 1)

    def test_blocks_keep_the_peak_below_the_whole_grid_window_matrix(self, monkeypatch):
        # Forward and backward of a grid-8 per-patch convolution, 8 channels,
        # 64 px, 2 frames: its whole-grid 3x3 window matrix would be 64
        # patches x 72 x (8*8*2) = 589,824 values.  The thread's window buffer
        # starts empty, so its growth is traced too.
        monkeypatch.setattr(T, "SPLIT_MACS", math.inf)
        monkeypatch.setattr(T._SCRATCH, "buf", None, raising=False)
        x = T.Tensor(rand((8, 64, 64, 2)), requires_grad=True)
        k = T.Tensor(rand((64, 8, 8, 3, 3), 1), requires_grad=True)
        b = T.Tensor(rand((64, 8), 2), requires_grad=True)
        up = T.Tensor(rand((8, 64, 64, 2), 3))
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                loss = T.sum_all(T.mul(T.conv2d_per_patch(x, k, b, padding=(1, 1)), up))
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tape.grad(x).shape == x.shape
        assert peak < 64 * 72 * 128 * 8

    def test_whole_map_convolution_never_splits(self, monkeypatch):
        monkeypatch.setattr(T, "SPLIT_MACS", 0)
        monkeypatch.setattr(T, "submit", None)  # any split would call it
        x = T.Tensor(rand((3, 8, 8, 2)), requires_grad=True)
        k, b = T.Tensor(rand((4, 3, 3, 3), 1), requires_grad=True), T.Tensor(rand((4,), 2))
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.conv2d(x, k, b, padding=(1, 1))))
        assert tape.grad(x).shape == x.shape

    def test_held_worker_keeps_the_grid_whole(self, monkeypatch):
        monkeypatch.setattr(T, "SPLIT_MACS", 0)
        monkeypatch.setattr(T, "submit", None)
        rows = []
        with T.worker_held():
            T._over_rows(4, 1, lambda r0, r1: rows.append((r0, r1)))
        assert rows == [(0, 4)]

    @pytest.mark.parametrize("failing", [(0,), (1,), (0, 1)])
    def test_failed_half_raises_once_both_have_finished(self, monkeypatch, failing):
        # Half 0 runs rows [0, 2) on the caller, half 1 rows [2, 4) on the worker.
        monkeypatch.setattr(T, "SPLIT_MACS", 0)
        finished = []

        class HalfFailed(Exception):
            pass

        def half(r0, r1):
            index = r0 // 2
            time.sleep(0.05 if index in failing else 0.3)  # the other half outlasts a failure
            finished.append(index)
            if index in failing:
                raise HalfFailed(index)

        with pytest.raises(HalfFailed) as exc:
            T._over_rows(4, 1, half)
        assert exc.value.args == (failing[0],) and sorted(finished) == [0, 1]


def attention_pool_reference(maps, feat, kernels, bias, padding, up):
    """Gate, convolve and average per map with the direct-loop reference.

    ``maps`` (B, M, H, W), ``feat`` (B, C, H, W), ``kernels`` (M, C_out, C,
    k_h, k_w) and ``bias`` (M, C_out): the M gated maps are the reference's
    patches.  Returns the (B, M, C_out) means and the gradients of
    sum(out * up) for maps, feat, kernels and bias.
    """
    gated = maps[:, :, None] * feat[:, None]  # (B, M, C, H, W)
    _, _, _, h, w = gated.shape
    kh, kw = kernels.shape[-2:]
    oh, ow = h + 2 * padding[0] - kh + 1, w + 2 * padding[1] - kw + 1
    up_map = np.broadcast_to(up[..., None, None] / (oh * ow), up.shape + (oh, ow))
    y, dgated, dk, db = reference_conv(gated, kernels, bias, padding, up_map)
    dmaps = (dgated * feat[:, None]).sum(axis=2)
    dfeat = (dgated * maps[:, :, None]).sum(axis=1)
    return y.mean(axis=(3, 4)), dmaps, dfeat, dk, db


class TestAttentionPool:
    """attention_pool equals gate -> conv -> spatial mean for every map."""

    @pytest.mark.parametrize(
        "kernel, padding",
        [((3, 3), (1, 1)), ((3, 3), (0, 0)), ((1, 1), (0, 0)), ((1, 3), (0, 1))],
    )
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("m", [1, 4])
    def test_matches_gated_conv_then_pool(self, kernel, padding, batch, m):
        c, co, h, w = 3, 2, 5, 7
        maps, feat = rand((batch, m, h, w)), rand((batch, c, h, w), seed=1)
        kernels, bias = rand((m, co, c) + kernel, seed=2), rand((m, co), seed=3)
        up = rand((batch, m, co), seed=4)
        expected = attention_pool_reference(maps, feat, kernels, bias, padding, up)

        ms, fs = (T.Tensor(batch_last(a), requires_grad=True) for a in (maps, feat))
        ks = [T.Tensor(k, requires_grad=True) for k in kernels]
        bs = [T.Tensor(bias_j, requires_grad=True) for bias_j in bias]
        with T.Tape() as tape:
            out = T.attention_pool(ms, fs, ks, bs, padding=padding)
            tape.backward(T.sum_all(T.mul(out, T.Tensor(up))))
        got = (out.data, np.moveaxis(tape.grad(ms), -1, 0), np.moveaxis(tape.grad(fs), -1, 0),
               np.stack([tape.grad(k) for k in ks]), np.stack([tape.grad(b) for b in bs]))
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert np.abs(g - e).max() < 1e-12

    def make(self, maps=(3, 4, 5, 2), feat=(6, 4, 5, 2), kernels=((2, 6, 3, 3),) * 3,
             biases=((2,),) * 3):
        return ([T.Tensor(rand(maps)), T.Tensor(rand(feat, seed=1))]
                + [[T.Tensor(rand(shape, seed=2)) for shape in kernels]]
                + [[T.Tensor(rand(shape, seed=3)) for shape in biases]])

    @pytest.mark.parametrize(
        "shapes",
        [
            {"feat": (6, 4, 5, 1)},                                     # batch
            {"feat": (6, 4, 6, 2)},                                     # map size
            {"maps": (4, 4, 5, 2)},                                     # maps vs banks
            {"kernels": ((2, 5, 3, 3),) * 3},                           # kernel C
            {"kernels": ((2, 6, 3, 3), (3, 6, 3, 3), (2, 6, 3, 3))},    # banks differ
            {"biases": ((3,),) * 3},
            {"biases": ((2,),) * 2},                                    # one bias per bank
            {"maps": (3, 4, 5)},                                        # ranks
            {"feat": (6, 4, 5)},
            {"kernels": ((2, 6, 3),) * 3},
            {"kernels": (), "biases": (), "maps": (0, 4, 5, 2)},        # no banks
        ],
    )
    def test_mismatched_shapes_rejected(self, shapes):
        with pytest.raises(ShapeError):
            T.attention_pool(*self.make(**shapes), padding=(1, 1))

    @pytest.mark.parametrize("padding", [(3, 1), (1, 3), (-1, 0)])
    def test_padding_outside_kernel_rejected(self, padding):
        with pytest.raises(ShapeError):
            T.attention_pool(*self.make(), padding=padding)


def partition_mix_oracle(x, parts, edge_weights, kernels, biases):
    """Per partition: 1x1 conv2d, tanh edge mask, mul and graph_matmul, then add.

    ``x`` is (C, T, B, N): ``conv2d`` reads it as a map (C, T, B) over a
    batch of N nodes, and ``graph_matmul`` mixes the last axis.
    """
    out = None
    for part, w, k, bias in zip(parts, edge_weights, kernels, biases):
        mixed = T.graph_matmul(T.mul(T.tanh(w), T.Tensor(part)), T.conv2d(x, k, bias))
        out = mixed if out is None else T.add(out, mixed)
    return out


class TestPartitionMix:
    """partition_mix equals the composed per-partition ops, as one node."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("track_x", [True, False])
    def test_matches_composed_ops(self, batch, track_x):
        c, co, t, n = 3, 4, 5, 4
        parts = [rand((n, n), seed=10 + q) for q in range(3)]
        x = rand((c, t, batch, n))
        params = ([rand((n, n), seed=1 + q) for q in range(3)]
                  + [rand((co, c, 1, 1), seed=4 + q) for q in range(3)]
                  + [rand((co,), seed=7 + q) for q in range(3)])
        up = T.Tensor(rand((co, t, batch, n), seed=13))
        results = []
        for op in (T.partition_mix, partition_mix_oracle):
            xs = T.Tensor(x, requires_grad=track_x)
            ps = [T.Tensor(a, requires_grad=True) for a in params]
            with T.Tape() as tape:
                out = op(xs, parts, ps[0:3], ps[3:6], ps[6:9])
                tape.backward(T.sum_all(T.mul(out, up)))
            results.append([out.data] + [tape.grad(p) for p in ps])
            dx = tape.grad(xs)
            assert (dx is not None) == track_x
            results[-1].append(dx if track_x else np.zeros(x.shape))
        for got, expected in zip(*results):
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() < 1e-12

    def test_is_one_tape_node(self):
        x = T.Tensor(rand((3, 4, 2, 5)), requires_grad=True)
        ps = [T.Tensor(rand(s, seed=1), requires_grad=True)
              for s in [(5, 5)] * 3 + [(2, 3, 1, 1)] * 3 + [(2,)] * 3]
        with T.Tape() as tape:
            T.partition_mix(x, [np.eye(5)] * 3, ps[0:3], ps[3:6], ps[6:9])
        assert len(tape._nodes) == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"x": (3, 4, 5)},                                    # rank
            {"kernel": (2, 4, 1, 1)},                            # kernel C_in
            {"kernel": (2, 3, 3, 1)},                            # not 1x1
            {"bias": (3,)},
            {"edge": (4, 4)},
            {"part": (5, 4)},
            {"count": 2},                                        # lists disagree
        ],
    )
    def test_mismatched_shapes_rejected(self, change):
        shapes = {"x": (3, 4, 2, 5), "kernel": (2, 3, 1, 1), "bias": (2,), "edge": (5, 5),
                  "part": (5, 5), **change}
        parts = [np.ones(shapes["part"])] * 3
        edges = [T.Tensor.ones(shapes["edge"])] * 3
        kernels = [T.Tensor.ones((2, 3, 1, 1)), T.Tensor.ones(shapes["kernel"]),
                   T.Tensor.ones((2, 3, 1, 1))]
        biases = [T.Tensor.zeros(shapes["bias"])] * 3
        with pytest.raises(ShapeError):
            T.partition_mix(T.Tensor.zeros(shapes["x"]), parts, edges,
                            kernels[:change.get("count", 3)], biases)


def per_node_head_reference(feat, weights, biases, up):
    """Value and gradients of sum(per_node_head(feat, weights, biases) * up), one node at a time."""
    out = np.zeros(feat.shape[:-3] + feat.shape[-2:])
    dfeat = np.zeros(feat.shape)
    dws, dbs = [], []
    for j, (w, b) in enumerate(zip(weights, biases)):
        w = w.reshape(-1)
        node = feat[..., j]  # (..., C, T)
        out[..., j] = (node * w[:, None]).sum(axis=-2) + b[0]
        dfeat[..., j] = w[:, None] * up[..., None, :, j]
        dws.append((node * up[..., None, :, j]).sum(axis=-1).reshape(-1, w.size).sum(axis=0))
        dbs.append(np.array([up[..., j].sum()]))
    return out, dfeat, dws, dbs


class TestPerNodeHead:
    """Each node's head from its own weight and bias entries, as one node."""

    def make(self, lead, weight_shape, c=3, t=4, n=5):
        feat = rand(lead + (c, t, n))
        weights = [rand(weight_shape, seed=1 + j) for j in range(n)]
        biases = [rand((1,), seed=20 + j) for j in range(n)]
        return feat, weights, biases

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("weight_shape", [(1, 3), (3,)], ids=["branch", "stack"])
    def test_matches_numpy_reference(self, lead, weight_shape):
        feat, weights, biases = self.make(lead, weight_shape)
        up = rand(lead + (4, 5), seed=30)
        f = T.Tensor(feat, requires_grad=True)
        ws = [T.Tensor(w, requires_grad=True) for w in weights]
        bs = [T.Tensor(b, requires_grad=True) for b in biases]
        with T.Tape() as tape:
            out = T.per_node_head(f, ws, bs)
            assert len(tape._nodes) == 1
            tape.backward(T.sum_all(T.mul(out, T.Tensor(up))))
        want, dfeat, dws, dbs = per_node_head_reference(feat, weights, biases, up)
        pairs = ([(out.data, want), (tape.grad(f), dfeat)]
                 + [(tape.grad(w), dw.reshape(w.shape)) for w, dw in zip(ws, dws)]
                 + [(tape.grad(b), db) for b, db in zip(bs, dbs)])
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("weight_shape", [(1, 3), (3,)], ids=["branch", "stack"])
    def test_grad_check(self, lead, weight_shape):
        feat, weights, biases = self.make(lead, weight_shape, n=3)
        up = T.Tensor(rand(lead + (4, 3), seed=31))

        def fn(f, *params):
            return T.sum_all(T.mul(T.per_node_head(f, params[:3], params[3:]), up))

        points = [T.Tensor(a) for a in [feat, *weights, *biases]]
        assert T.grad_check(fn, points) < 1e-6

    @pytest.mark.parametrize(
        "change",
        [
            {"n_weights": 4},          # fewer weights than nodes
            {"n_biases": 6},           # more biases than nodes
            {"weight_shape": (1, 4)},  # weight size is not C
            {"bias_shape": (2,)},      # bias of two values
            {"feat": (3, 5)},          # no channel axis
        ],
    )
    def test_mismatch_rejected(self, change):
        n = 5
        feat = T.Tensor(rand(change.get("feat", (3, 4, n))))
        weights = [T.Tensor(rand(change.get("weight_shape", (3,)), seed=j))
                   for j in range(change.get("n_weights", n))]
        biases = [T.Tensor(rand(change.get("bias_shape", (1,)), seed=j))
                  for j in range(change.get("n_biases", n))]
        with pytest.raises(ShapeError):
            T.per_node_head(feat, weights, biases)


class TestPadEdge:
    @pytest.mark.parametrize("shape, axis", [((3, 4), a) for a in range(-2, 2)]
                             + [((2, 3, 4), a) for a in range(-3, 3)])
    def test_matches_np_pad_and_grad_check(self, shape, axis):
        x = rand(shape)
        for before in range(4):
            for after in range(4):
                widths = [(0, 0)] * len(shape)
                widths[axis] = (before, after)
                want = np.pad(x, widths, mode="edge")
                xt = T.Tensor(x, requires_grad=True)
                up = T.Tensor(rand(want.shape, seed=1))
                with T.Tape() as tape:
                    out = T.pad_edge(xt, axis, before, after)
                    tape.backward(T.sum_all(T.mul(out, up)))
                assert np.array_equal(out.data, want)
                assert tape.grad(xt).shape == shape

                def fn(t):
                    return T.sum_all(T.mul(T.pad_edge(t, axis, before, after), up))

                assert T.grad_check(fn, T.Tensor(x)) < 1e-6, (before, after)

    @pytest.mark.parametrize("axis", [1, -2])
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ShapeError):
            T.pad_edge(T.Tensor(np.zeros((2, 0, 3))), axis, 1, 1)

    def test_negative_pad_rejected(self):
        with pytest.raises(ShapeError):
            T.pad_edge(T.Tensor(np.zeros((2, 3))), 1, -1, 0)


class TestMaxPool:
    def test_two_by_two(self):
        y = T.maxpool2d(T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)))
        assert y.data.tolist() == [[[[4.0]]]]

    def test_constant_input_tie_gradient_goes_to_first_cell(self):
        x = T.Tensor(np.ones((1, 4, 4, 3)), requires_grad=True)
        with T.Tape() as tape:
            y = T.maxpool2d(x)
            loss = T.sum_all(y)
            tape.backward(loss)
        g = tape.grad(x)
        expected = np.zeros((1, 4, 4, 3))
        expected[0, ::2, ::2, :] = 1.0  # first element of each 2x2 field
        assert np.array_equal(g, expected)

    def test_matches_fields_of_each_frame(self):
        # Values drawn from 0..2 tie often, and differently in every frame.
        c, h, w, batch = 2, 4, 6, 3
        x = np.random.default_rng(5).integers(0, 3, (batch, c, h, w)).astype(float)
        up = rand((batch, c, h // 2, w // 2), seed=6)
        want, dwant = np.zeros(up.shape), np.zeros(x.shape)
        for b, ch, i, j in np.ndindex(up.shape):
            field = x[b, ch, 2 * i:2 * i + 2, 2 * j:2 * j + 2].reshape(4)
            first = int(np.argmax(field))  # the first cell holding the max
            want[b, ch, i, j] = field[first]
            dwant[b, ch, 2 * i + first // 2, 2 * j + first % 2] = up[b, ch, i, j]
        xs = T.Tensor(batch_last(x), requires_grad=True)
        with T.Tape() as tape:
            y = T.maxpool2d(xs)
            tape.backward(T.sum_all(T.mul(y, T.Tensor(batch_last(up)))))
        assert np.array_equal(y.data, batch_last(want))
        assert np.array_equal(tape.grad(xs), batch_last(dwant))

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            T.maxpool2d(T.Tensor(rand((1, 3, 4, 1))))


class TestGlobalAvgPool:
    def test_all_ones(self):
        y = T.global_avg_pool(T.Tensor(np.ones((1, 4, 2, 2))))
        assert np.array_equal(y.data, np.ones((1, 4)))

    def test_channel_mean(self):
        y = T.global_avg_pool(T.Tensor([[[[0.0, 2.0], [4.0, 6.0]]]]))
        assert y.data.tolist() == [[3.0]]


class TestPurity:
    def test_forward_is_bitwise_reproducible(self):
        x = rand((3, 8, 8, 2))
        k = rand((4, 3, 3, 3), seed=1)
        b = rand((4,), seed=2)

        def run():
            h = T.conv2d(T.Tensor(x), T.Tensor(k), T.Tensor(b), padding=(1, 1))
            h = T.maxpool2d(h)
            return T.mean_all(T.sigmoid(h)).data

        assert np.array_equal(run(), run())
