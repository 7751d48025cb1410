"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` is an immutable N-dimensional float64 array.  Differentiable
operations are module-level functions; when a ``Tape`` is active (entered as
a context manager) every operation touching a tracked tensor records a node
with a backward closure, and ``Tape.backward`` replays the nodes in reverse
to accumulate gradients.  The tape is rebuilt on every forward pass
(define-by-run), so arbitrary control flow is fine.

``grad_check`` provides the central-finite-difference oracle used throughout
the test suite.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, NumericalError, ShapeError

# When True, every operation validates that its output is finite.  Off by
# default: the constructor always validates, so non-finite values can only
# appear through arithmetic (e.g. overflow), which the tests enable this to
# catch.
_DEBUG_CHECKS = False


def set_debug_checks(enabled: bool) -> None:
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = enabled


_ids = itertools.count(1)


class Tensor:
    """Immutable dense float64 array with shape metadata and a value id."""

    __slots__ = ("data", "requires_grad", "id")

    def __init__(self, data, requires_grad: bool = False):
        # Copy so freezing never touches a caller-owned buffer.
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise NumericalError("tensor construction requires finite values")
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.id = next(_ids)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Fast path for op outputs; finiteness checked only in debug mode."""
        out = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if _DEBUG_CHECKS and not np.all(np.isfinite(arr)):
            raise NumericalError("operation produced a non-finite value")
        arr.setflags(write=False)
        out.data = arr
        out.requires_grad = False
        out.id = next(_ids)
        return out

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> "Tensor":
        return cls._wrap(np.zeros(shape))

    @classmethod
    def ones(cls, shape: tuple[int, ...]) -> "Tensor":
        return cls._wrap(np.ones(shape))

    @classmethod
    def full(cls, shape: tuple[int, ...], value: float) -> "Tensor":
        return cls._wrap(np.full(shape, float(value)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_ACTIVE = threading.local()


def _active_tape() -> "Tape | None":
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


class _Node:
    __slots__ = ("out_id", "backward")

    def __init__(self, out_id: int, backward: Callable):
        self.out_id = out_id
        self.backward = backward


class Tape:
    """Append-only record of operations for one forward pass.

    Nodes are recorded in execution order, so reverse iteration is a valid
    reverse-topological traversal.  ``gradients`` maps value ids to
    accumulated gradient arrays after ``backward``.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._watched: set[int] = set()
        self.gradients: dict[int, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        stack = getattr(_ACTIVE, "stack", None)
        if stack is None:
            stack = []
            _ACTIVE.stack = stack
        stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.stack.pop()

    def backward(self, loss: Tensor) -> None:
        """Populate gradients for everything reachable from ``loss``."""
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads = self.gradients = {loss.id: np.ones((), dtype=np.float64)}
        owned: set[int] = set()

        def accumulate(tensor_id: int, value: np.ndarray) -> None:
            # A first value is kept as given (``add`` hands one array to both
            # inputs; views may be read-only): add in place only into our own.
            existing = grads.get(tensor_id)
            if existing is None:
                grads[tensor_id] = value
            elif tensor_id in owned:
                existing += value
            else:
                grads[tensor_id] = existing + value
                owned.add(tensor_id)

        for node in reversed(self._nodes):
            grad_out = grads.get(node.out_id)
            if grad_out is not None:
                node.backward(grad_out, accumulate)

    def grad(self, tensor: Tensor) -> np.ndarray | None:
        return self.gradients.get(tensor.id)


def _tracked(tape: "Tape | None", tensor: Tensor) -> bool:
    """Whether gradients can flow to ``tensor`` on ``tape``."""
    return tape is not None and (tensor.requires_grad or tensor.id in tape._watched)


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    """Record ``out = op(inputs)`` on the active tape if gradients can flow.

    ``backward(grad_out, accumulate)`` must push gradients to the inputs via
    ``accumulate(tensor_id, array)``; the tape may keep the array, so neither
    it nor ``grad_out`` may be written to.
    """
    tape = _active_tape()
    if tape is None:
        return out
    if any(_tracked(tape, t) for t in inputs):
        tape._watched.add(out.id)
        tape._nodes.append(_Node(out.id, backward))
    return out


# ---------------------------------------------------------------------------
# Elementwise and structural operations
# ---------------------------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor._wrap(a.data + b.data)

    def backward(g, acc):
        acc(a.id, g)
        acc(b.id, g)

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)

    def backward(g, acc):
        acc(a.id, g)
        acc(b.id, -g)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)

    def backward(g, acc):
        acc(a.id, g * b.data)
        acc(b.id, g * a.data)

    return _record(out, (a, b), backward)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor._wrap(a.data * s)

    def backward(g, acc):
        acc(a.id, g * s)

    return _record(out, (a,), backward)


def scalar_add(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor._wrap(a.data + s)

    def backward(g, acc):
        acc(a.id, g)

    return _record(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # Evaluate from the side that keeps exp() from overflowing.
    pos = x >= 0
    y = np.empty_like(x)
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor._wrap(y)
    y_saved = out.data

    def backward(g, acc):
        acc(a.id, g * y_saved * (1.0 - y_saved))

    return _record(out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.tanh(a.data))
    y_saved = out.data

    def backward(g, acc):
        acc(a.id, g * (1.0 - y_saved * y_saved))

    return _record(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive values")
    out = Tensor._wrap(np.log(a.data))

    def backward(g, acc):
        acc(a.id, g / a.data)

    return _record(out, (a,), backward)


def clamp(a: Tensor, low: float, high: float) -> Tensor:
    """Clip to [low, high]; gradient is 1 strictly inside, 0 outside."""
    out = Tensor._wrap(np.clip(a.data, low, high))
    interior = (a.data > low) & (a.data < high)

    def backward(g, acc):
        acc(a.id, g * interior)

    return _record(out, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    try:
        out = Tensor._wrap(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    ids = [t.id for t in tensors]

    def backward(g, acc):
        for tid, piece in zip(ids, np.split(g, splits, axis=axis)):
            acc(tid, piece)

    return _record(out, tuple(tensors), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    dim = a.shape[axis]
    if not (0 <= start < stop <= dim):
        raise ShapeError(f"slice [{start}, {stop}) out of range for axis of size {dim}")
    index = tuple(slice(None) if d != axis else slice(start, stop) for d in range(a.data.ndim))
    out = Tensor._wrap(a.data[index])
    in_shape = a.shape

    def backward(g, acc):
        full = np.zeros(in_shape)
        full[index] = g
        acc(a.id, full)

    return _record(out, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = Tensor._wrap(a.data.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"reshape: {e}") from None
    in_shape = a.shape

    def backward(g, acc):
        acc(a.id, g.reshape(in_shape))

    return _record(out, (a,), backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor._wrap(np.transpose(a.data, axes))
    inverse = tuple(int(i) for i in np.argsort(axes))

    def backward(g, acc):
        acc(a.id, np.transpose(g, inverse))

    return _record(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._wrap(a.data @ b.data)

    def backward(g, acc):
        acc(a.id, g @ b.data.T)
        acc(b.id, a.data.T @ g)

    return _record(out, (a, b), backward)


def per_node_head(feat: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-node channel contraction: out[..., t, j] = w[j] . feat[..., :, t, j] + b[j].

    ``feat`` is (..., C, T, N); ``weight`` is (N, C); ``bias`` is (N,).
    Each node position j gets its own linear functional over channels.
    """
    n, c = weight.shape
    if feat.data.ndim < 3 or feat.shape[-1] != n or feat.shape[-3] != c:
        raise ShapeError(f"per_node_head: feat {feat.shape} vs weight {weight.shape}")
    if bias.shape != (n,):
        raise ShapeError(f"per_node_head: bias shape {bias.shape} != ({n},)")
    out = Tensor._wrap(
        np.einsum("...ctj,jc->...tj", feat.data, weight.data) + bias.data
    )

    def backward(g, acc):
        lead = feat.shape[:-3]
        g2 = g.reshape((-1,) + g.shape[len(lead):])
        f2 = feat.data.reshape((-1,) + feat.shape[len(lead):])
        acc(weight.id, np.einsum("ntj,nctj->jc", g2, f2))
        acc(bias.id, g2.sum(axis=(0, 1)))
        acc(feat.id, np.einsum("jc,...tj->...ctj", weight.data, g))

    return _record(out, (feat, weight, bias), backward)


def bias_add_row(a: Tensor, bias: Tensor) -> Tensor:
    """Add a length-N bias to every row of an (R, N) matrix."""
    if a.data.ndim != 2 or bias.data.ndim != 1 or a.shape[1] != bias.shape[0]:
        raise ShapeError(f"bias_add_row: shapes {a.shape} and {bias.shape}")
    out = Tensor._wrap(a.data + bias.data[None, :])

    def backward(g, acc):
        acc(a.id, g)
        acc(bias.id, g.sum(axis=0))

    return _record(out, (a, bias), backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.asarray(a.data.sum()))
    in_shape = a.shape

    def backward(g, acc):
        acc(a.id, np.broadcast_to(g, in_shape).copy())

    return _record(out, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    out = Tensor._wrap(np.asarray(a.data.mean()))
    in_shape = a.shape

    def backward(g, acc):
        acc(a.id, np.broadcast_to(g / n, in_shape).copy())

    return _record(out, (a,), backward)


def broadcast_mul_channelwise(weight_map: Tensor, feat: Tensor) -> Tensor:
    """Multiply every channel of ``feat`` (B, C, H, W) by its map (B, H, W)."""
    if (
        weight_map.data.ndim != 3
        or feat.data.ndim != 4
        or weight_map.shape != (feat.shape[0],) + feat.shape[2:]
    ):
        raise ShapeError(f"channelwise mul: map {weight_map.shape} vs feat {feat.shape}")
    m = weight_map.data[:, None, :, :]
    out = Tensor._wrap(m * feat.data)

    def backward(g, acc):
        acc(weight_map.id, (g * feat.data).sum(axis=1))
        acc(feat.id, g * m)

    return _record(out, (weight_map, feat), backward)


def pad_edge(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    """Replicate the first/last slice along ``axis`` (edge padding)."""
    if before < 0 or after < 0:
        raise ShapeError("pad amounts must be non-negative")
    widths = [(0, 0)] * a.data.ndim
    widths[axis] = (before, after)
    out = Tensor._wrap(np.pad(a.data, widths, mode="edge"))
    dim = a.shape[axis]

    def backward(g, acc):
        idx_interior = tuple(
            slice(before, before + dim) if d == axis else slice(None)
            for d in range(g.ndim)
        )
        grad = np.array(g[idx_interior])
        if before:
            idx_lo = tuple(
                slice(0, before) if d == axis else slice(None) for d in range(g.ndim)
            )
            first = tuple(
                slice(0, 1) if d == axis else slice(None) for d in range(g.ndim)
            )
            grad[first] += g[idx_lo].sum(axis=axis, keepdims=True)
        if after:
            idx_hi = tuple(
                slice(before + dim, None) if d == axis else slice(None)
                for d in range(g.ndim)
            )
            last = tuple(
                slice(dim - 1, dim) if d == axis else slice(None) for d in range(g.ndim)
            )
            grad[last] += g[idx_hi].sum(axis=axis, keepdims=True)
        acc(a.id, grad)

    return _record(out, (a,), backward)


def graph_matmul(matrix: Tensor, feat: Tensor) -> Tensor:
    """Mix the last (node) axis of ``feat`` by an m x m matrix.

    out[..., j] = sum_k matrix[j, k] * feat[..., k]
    """
    m = matrix.shape
    if len(m) != 2 or m[0] != m[1] or feat.shape[-1] != m[0]:
        raise ShapeError(f"graph_matmul: matrix {m} vs feat {feat.shape}")
    out = Tensor._wrap(np.einsum("jk,...k->...j", matrix.data, feat.data))

    def backward(g, acc):
        n = m[0]
        g2 = g.reshape(-1, n)
        f2 = feat.data.reshape(-1, n)
        acc(matrix.id, g2.T @ f2)
        acc(feat.id, np.einsum("jk,...j->...k", matrix.data, g))

    return _record(out, (matrix, feat), backward)


# ---------------------------------------------------------------------------
# Convolution and pooling
# ---------------------------------------------------------------------------


def _grouped_conv(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray | None, padding: tuple[int, int]
) -> tuple[np.ndarray, Callable]:
    """Cross-correlation of a g x g grid of patches, each with its own kernel bank.

    ``x`` is (B, C_in, H, W), cut row-major into P = g*g patches of H/g x W/g;
    ``kernels`` is (P, C_out, C_in, k_h, k_w) and ``bias`` (P, C_out) or None.
    Each patch is zero-padded on its own.  Returns the (B, C_out, g*oh, g*ow)
    map of patch outputs pasted back in place, and ``backward(g, need_dx) ->
    (dx, dkernels, dbias)``, where ``dx`` is None unless ``need_dx``.
    Cutting and padding are one copy, and so is pasting.  Windows are
    channel-major, (P, C_in*k_h*k_w, B*oh*ow): each copied run is one
    contiguous input row.  ``dx`` correlates ``g`` with the kernels
    flipped in both spatial axes and C_in, C_out swapped, at padding k-1-p,
    so padding must lie in 0..k-1.
    """
    p, co, ci, kh, kw = kernels.shape
    b, _, hh, ww = x.shape
    grid = math.isqrt(p)
    if grid * grid != p or hh % grid or ww % grid:
        raise ShapeError(f"conv2d: {p} kernel banks do not tile a {hh}x{ww} map as a square grid")
    h, w = hh // grid, ww // grid
    ph, pw = padding
    if not (0 <= ph < kh and 0 <= pw < kw):
        raise ShapeError(f"conv2d: padding {padding} outside 0..k-1 for kernel {kh}x{kw}")
    oh, ow = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds input {h}x{w} padded by {padding}")
    patches = x.reshape(b, ci, grid, h, grid, w).transpose(0, 2, 4, 1, 3, 5)
    if ph or pw:  # zeros plus one slice copy: several times faster than np.pad here
        xp = np.zeros((b, grid, grid, ci, h + 2 * ph, w + 2 * pw))
        xp[..., ph : ph + h, pw : pw + w] = patches
    else:
        xp = patches
    s = xp.strides
    win = as_strided(xp, xp.shape[:4] + (oh, ow, kh, kw), s + s[-2:], writeable=False)
    k, n = ci * kh * kw, b * oh * ow
    win2 = np.ascontiguousarray(win.transpose(1, 2, 3, 6, 7, 0, 4, 5)).reshape(p, k, n)
    y2 = kernels.reshape(p, co, k) @ win2  # (P, C_out, B*oh*ow)
    if bias is not None:
        y2 += bias[:, :, None]

    def backward(g, need_dx):
        g_patches = g.reshape(b, co, grid, oh, grid, ow).transpose(2, 4, 1, 0, 3, 5)
        g2 = np.ascontiguousarray(g_patches).reshape(p, co, n)
        dk = (g2 @ win2.transpose(0, 2, 1)).reshape(kernels.shape)
        dx = None
        if need_dx:
            flipped = kernels[..., ::-1, ::-1].transpose(0, 2, 1, 3, 4)  # arXiv 1603.07285
            dx, _ = _grouped_conv(g, flipped, None, (kh - 1 - ph, kw - 1 - pw))
        return dx, dk, g2.sum(axis=2)

    y = y2.reshape(grid, grid, co, b, oh, ow).transpose(3, 2, 0, 4, 1, 5)
    return y.reshape(b, co, grid * oh, grid * ow), backward


def _conv(op: str, input: Tensor, kernels: Tensor, bias: Tensor, padding) -> Tensor:
    """Shared node of both convolutions; ``kernels`` may lack the bank axis."""
    if (
        input.data.ndim != 4
        or kernels.data.ndim != (4 if op == "conv2d" else 5)
        or input.shape[1] != kernels.shape[-3]
    ):
        raise ShapeError(f"{op}: input {input.shape} vs kernels {kernels.shape}")
    if bias.shape != kernels.shape[:-3]:
        raise ShapeError(f"{op}: bias shape {bias.shape} != {kernels.shape[:-3]}")
    banks = kernels.data.reshape((-1,) + kernels.shape[-4:])
    y, grads = _grouped_conv(input.data, banks, bias.data.reshape(banks.shape[:2]), padding)
    out = Tensor._wrap(y)
    # Frames, or the features of a frozen stage, need no gradient: skip
    # the input-gradient convolution for an input the tape does not track.
    need_dx = _tracked(_active_tape(), input)

    def backward(g, acc):
        dx, dk, db = grads(g, need_dx)
        acc(bias.id, db.reshape(bias.shape))
        acc(kernels.id, dk.reshape(kernels.shape))
        if need_dx:
            acc(input.id, dx)

    return _record(out, (input, kernels, bias), backward)


def conv2d(
    input: Tensor,
    kernels: Tensor,
    bias: Tensor,
    padding: tuple[int, int] = (0, 0),
) -> Tensor:
    """2-D cross-correlation with zero padding.

    ``input`` is (B, C_in, H, W); ``kernels`` is (C_out, C_in, k_h, k_w);
    ``bias`` is (C_out,).  The output spatial size is H + 2*pad - k + 1.
    This is the one-patch case of :func:`conv2d_per_patch`.
    """
    return _conv("conv2d", input, kernels, bias, padding)


def conv2d_per_patch(
    input: Tensor,
    kernels: Tensor,
    bias: Tensor,
    padding: tuple[int, int] = (1, 1),
) -> Tensor:
    """Stride-1 cross-correlation with an independent kernel bank per patch.

    ``input`` is a whole map (B, C_in, H, W); ``kernels`` is (P, C_out,
    C_in, k_h, k_w) with P = g*g, and ``bias`` is (P, C_out).  The map is cut
    into a g x g grid of H/g x W/g patches, numbered row-major; each patch is
    zero-padded and convolved on its own with its bank, and the results are
    pasted back in place: (B, C_out, H, W) at padding (k-1)/2.
    """
    return _conv("conv2d_per_patch", input, kernels, bias, padding)


def maxpool2d(input: Tensor) -> Tensor:
    """Max over non-overlapping 2x2 fields of a (B, C, H, W) batch.

    On ties the first cell in row-major order within the field receives the
    whole gradient.
    """
    if input.data.ndim != 4:
        raise ShapeError(f"maxpool2d: bad rank for shape {input.shape}")
    b, c, h, w = input.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d: spatial dims ({h}, {w}) must be even")
    fields = input.data.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = fields.reshape(b, c, h // 2, w // 2, 4)
    argmax = flat.argmax(axis=-1)  # first max in row-major field order
    out = Tensor._wrap(np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0])

    def backward(g, acc):
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, argmax[..., None], g[..., None], axis=-1)
        dx = (
            dflat.reshape(b, c, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h, w)
        )
        acc(input.id, dx)

    return _record(out, (input,), backward)


def global_avg_pool(input: Tensor) -> Tensor:
    """Mean over the spatial axes: (B, C, H, W) -> (B, C)."""
    if input.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: bad rank for shape {input.shape}")
    b, c, h, w = input.shape
    out = Tensor._wrap(input.data.mean(axis=(2, 3)))

    def backward(g, acc):
        acc(input.id, np.broadcast_to(g[:, :, None, None] / (h * w), (b, c, h, w)).copy())

    return _record(out, (input,), backward)


def _read_mask(n: int, k: int, pad: int, out: int) -> np.ndarray:
    """(k, n) 0/1 matrix: 1 where kernel offset d reads input index y for some output."""
    y = np.arange(n)[None, :] - np.arange(k)[:, None] + pad
    return ((y >= 0) & (y < out)).astype(np.float64)


def attention_pool(
    maps: Tensor,
    feat: Tensor,
    kernels: Tensor,
    bias: Tensor,
    padding: tuple[int, int],
) -> Tensor:
    """Spatial mean of one convolution of each gated feature map, all at once.

    ``maps`` is (B, M, H, W), ``feat`` (B, C, H, W), ``kernels`` (M, C_out,
    C, k_h, k_w) and ``bias`` (M, C_out).  Returns (B, M, C_out) with
    ``out[:, j] = global_avg_pool(conv2d(maps[:, j] * feat, kernels[j],
    bias[j], padding))``, padding in 0..k-1 as for :func:`conv2d`.

    The mean is linear, so it moves ahead of the convolution (as CAM swaps
    pool and classifier, arXiv 1512.04150): the mean output is the kernels
    applied to window sums ``S[b, j, d, e, c] = sum_{y,x} E[d, e, y, x]
    maps[b, j, y, x] feat[b, c, y, x]``, where E marks the inputs that kernel
    offset (d, e) reads for some output.  S is one (M*k_h*k_w, H*W) @ (H*W,
    C) product per frame, and the backward is two more of that size.
    """
    if maps.data.ndim != 4 or feat.data.ndim != 4 or kernels.data.ndim != 5:
        raise ShapeError(
            f"attention_pool: maps {maps.shape}, feat {feat.shape}, kernels {kernels.shape}"
        )
    b, m, hh, ww = maps.shape
    _, co, c, kh, kw = kernels.shape
    if feat.shape != (b, c, hh, ww) or kernels.shape[0] != m:
        raise ShapeError(
            f"attention_pool: maps {maps.shape}, feat {feat.shape}, kernels {kernels.shape}"
        )
    if bias.shape != (m, co):
        raise ShapeError(f"attention_pool: bias shape {bias.shape} != {(m, co)}")
    ph, pw = padding
    if not (0 <= ph < kh and 0 <= pw < kw):
        raise ShapeError(f"attention_pool: padding {padding} outside 0..k-1 for kernel {kh}x{kw}")
    oh, ow = hh + 2 * ph - kh + 1, ww + 2 * pw - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"attention_pool: kernel {kh}x{kw} exceeds input {hh}x{ww}")
    taps, hw, scale = kh * kw, hh * ww, 1.0 / (oh * ow)
    reads = (_read_mask(hh, kh, ph, oh)[:, None, :, None]
             * _read_mask(ww, kw, pw, ow)[None, :, None, :]).reshape(taps, hw)
    f2 = feat.data.reshape(b, c, hw)
    gated = (maps.data.reshape(b, m, 1, hw) * reads).reshape(b, m * taps, hw)
    sums = gated @ f2.transpose(0, 2, 1)  # (B, M*k_h*k_w, C)
    s2 = sums.reshape(b, m, taps, c).transpose(1, 3, 2, 0).reshape(m, c * taps, b)
    k2 = kernels.data.reshape(m, co, c * taps)
    out = Tensor._wrap((k2 @ s2).transpose(2, 0, 1) * scale + bias.data)

    def backward(g, acc):
        gs = g.transpose(1, 0, 2) * scale  # (M, B, C_out)
        acc(bias.id, g.sum(axis=0))
        acc(kernels.id, (gs.transpose(0, 2, 1) @ s2.transpose(0, 2, 1)).reshape(kernels.shape))
        dsums = (gs @ k2).reshape(m, b, c, taps).transpose(1, 0, 3, 2).reshape(b, m * taps, c)
        dmaps = np.einsum("bjtp,tp->bjp", (dsums @ f2).reshape(b, m, taps, hw), reads)
        acc(maps.id, dmaps.reshape(maps.shape))
        acc(feat.id, (dsums.transpose(0, 2, 1) @ gated).reshape(feat.shape))

    return _record(out, (maps, feat, kernels, bias), backward)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[..., Tensor],
    points: Tensor | Sequence[Tensor],
    eps: float = 1e-6,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of a scalar function against central
    finite differences.

    Returns max over checked coordinates of
    ``|analytic - numeric| / max(1, |numeric|)``.  ``f`` must be a pure
    function of its tensor arguments.  With ``max_coords`` set, at most that
    many coordinates per argument are probed (deterministically sampled),
    which keeps whole-network checks affordable.
    """
    if eps <= 0:
        raise DomainError("grad_check requires eps > 0")
    single = isinstance(points, Tensor)
    pts = [points] if single else list(points)
    params = [Tensor(p.data, requires_grad=True) for p in pts]

    with Tape() as tape:
        y = f(*params)
        if y.shape != ():
            raise ShapeError(f"grad_check needs a scalar function, got shape {y.shape}")
        tape.backward(y)
    analytic = [
        tape.grad(p) if tape.grad(p) is not None else np.zeros(p.shape) for p in params
    ]

    from .rng import Xoshiro256pp  # local import avoids a cycle at module load

    picker = Xoshiro256pp(seed)
    worst = 0.0
    for i, p in enumerate(params):
        n = p.size
        if max_coords is None or n <= max_coords:
            coords = range(n)
        else:
            coords = sorted({picker.randint(n) for _ in range(max_coords)})
        base = p.data
        for flat_idx in coords:
            bumped = base.copy().reshape(-1)
            bumped[flat_idx] += eps
            plus = _eval_detached(f, params, i, bumped.reshape(p.shape))
            bumped[flat_idx] -= 2 * eps
            minus = _eval_detached(f, params, i, bumped.reshape(p.shape))
            numeric = (plus - minus) / (2 * eps)
            ana = analytic[i].reshape(-1)[flat_idx]
            err = abs(ana - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


def _eval_detached(f, params: list[Tensor], index: int, replacement: np.ndarray) -> float:
    args = list(params)
    args[index] = Tensor(replacement)
    return f(*args).item()
