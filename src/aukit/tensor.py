"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` is an immutable N-dimensional float64 array.  Differentiable
operations are module-level functions; when a ``Tape`` is active (entered as
a context manager) every operation touching a tracked tensor records a node
with a backward closure, and ``Tape.backward`` replays the nodes in reverse
to accumulate gradients.  The tape is rebuilt on every forward pass
(define-by-run), so arbitrary control flow is fine.

Feature maps are stored batch-last, (C, H, W, B): the convolutions,
``maxpool2d`` and ``attention_pool`` take that layout (and all but the
pool return it), so a window copy moves runs of ow*B contiguous values
rather than one patch row.  ``broadcast_mul_channelwise`` and
``global_avg_pool``, which the model no longer calls, keep batch first.
The ops with one parameter per branch or node (``attention_pool``,
``partition_mix``, ``per_node_head``) take those entries as lists, so
stacking them records no tape node.

A large per-patch convolution runs on two threads: the caller takes the
first half of the patch grid's rows and the one worker thread (``_POOL``,
shared with ``model.attention_predict``) the second.  Each half walks its
patches in blocks whose windows fit ``BLOCK_VALUES``, and finishes each
block (bias, an optional fused tanh, the paste into the output map) before
the next, so a thread's window buffer is bounded by one block, or by a
whole-map convolution's window matrix.  Each patch's products are the same
calls either way, so the bytes depend on neither the split nor the blocks.

``grad_check`` provides the central-finite-difference oracle used throughout
the test suite.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, InternalInvariantError, NumericalError, ShapeError

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
        """Fast path for op outputs: unlike the constructor, no copy and no finiteness check."""
        out = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
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
    reverse-topological traversal.  ``backward`` consumes the tape: it
    drops each node, and the gradient of the node's output, once the node
    has run, so the arrays a backward closure holds are freed during the
    pass, and it runs once per tape.  Afterwards ``gradients`` maps the ids
    of the tensors no recorded node produced (the leaves) to their
    accumulated gradient arrays; ``grad`` of an intermediate is None.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._watched: set[int] = set()
        self._consumed = False
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
        if self._consumed:
            raise InternalInvariantError(
                "backward already ran on this tape and freed its nodes; record a new tape"
            )
        self._consumed = True
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

        nodes = self._nodes
        while nodes:
            node = nodes.pop()
            grad_out = grads.pop(node.out_id, None)
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
    it nor ``grad_out`` may be written to.  The tape keeps the closure, and
    all it closes over, until the backward reaches it: a closure holds an
    input's ``id``, not the tensor, unless it reads the input's values, and
    holds no array it can rebuild from what it keeps (the convolutions keep
    no window matrix).
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
    tape = _active_tape()
    # Only inputs the tape tracks get a gradient, not labels or weights.
    ids = [t.id for t in (a, b) if _tracked(tape, t)]

    def backward(g, acc):
        for tid in ids:
            acc(tid, g)

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)
    tape = _active_tape()
    signs = [(t.id, first) for t, first in ((a, True), (b, False)) if _tracked(tape, t)]

    def backward(g, acc):
        for tid, first in signs:
            acc(tid, g if first else -g)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)
    tape = _active_tape()
    # A tracked input keeps the other's values; nothing is kept for a constant.
    pairs = [(x.id, y.data) for x, y in ((a, b), (b, a)) if _tracked(tape, x)]

    def backward(g, acc):
        for tid, other in pairs:
            acc(tid, g * other)

    return _record(out, (a, b), backward)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor._wrap(a.data * s)
    a_id = a.id

    def backward(g, acc):
        acc(a_id, g * s)

    return _record(out, (a,), backward)


def scalar_add(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor._wrap(a.data + s)
    a_id = a.id

    def backward(g, acc):
        acc(a_id, g)

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
    y_saved, a_id = out.data, a.id

    def backward(g, acc):
        acc(a_id, g * y_saved * (1.0 - y_saved))

    return _record(out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.tanh(a.data))
    y_saved, a_id = out.data, a.id

    def backward(g, acc):
        acc(a_id, g * (1.0 - y_saved * y_saved))

    return _record(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive values")
    out = Tensor._wrap(np.log(a.data))
    a_id, x = a.id, a.data

    def backward(g, acc):
        acc(a_id, g / x)

    return _record(out, (a,), backward)


def clamp(a: Tensor, low: float, high: float) -> Tensor:
    """Clip to [low, high]; gradient is 1 strictly inside, 0 outside."""
    out = Tensor._wrap(np.clip(a.data, low, high))
    interior = (a.data > low) & (a.data < high)
    a_id = a.id

    def backward(g, acc):
        acc(a_id, g * interior)

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
    in_shape, a_id = a.shape, a.id

    def backward(g, acc):
        full = np.zeros(in_shape)
        full[index] = g
        acc(a_id, full)

    return _record(out, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = Tensor._wrap(a.data.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"reshape: {e}") from None
    in_shape, a_id = a.shape, a.id

    def backward(g, acc):
        acc(a_id, g.reshape(in_shape))

    return _record(out, (a,), backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor._wrap(np.transpose(a.data, axes))
    inverse = tuple(int(i) for i in np.argsort(axes))
    a_id = a.id

    def backward(g, acc):
        acc(a_id, np.transpose(g, inverse))

    return _record(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._wrap(a.data @ b.data)

    def backward(g, acc):
        acc(a.id, g @ b.data.T)
        acc(b.id, a.data.T @ g)

    return _record(out, (a, b), backward)


def per_node_head(feat: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor]) -> Tensor:
    """Per-node channel contraction: out[..., t, j] = w_j . feat[..., :, t, j] + b_j.

    ``feat`` is (..., C, T, N); ``weights`` holds N weights of C values, (C,)
    or (1, C), and ``biases`` N one-value biases: the lists a checkpoint
    holds, so each node's head gets its own gradient with no stacking node.
    """
    n = len(weights)
    if (feat.data.ndim < 3 or feat.shape[-1] != n or len(biases) != n
            or any(w.size != feat.shape[-3] or b.size != 1 for w, b in zip(weights, biases))):
        raise ShapeError(f"per_node_head: feat {feat.shape} vs weights "
                         f"{[w.shape for w in weights]}, biases {[b.shape for b in biases]}")
    weight = np.stack([w.data.reshape(-1) for w in weights])  # (N, C)
    out = Tensor._wrap(np.einsum("...ctj,jc->...tj", feat.data, weight)
                       + np.concatenate([b.data.reshape(1) for b in biases]))
    head_ids = [(w.id, w.shape, b.id, b.shape) for w, b in zip(weights, biases)]

    def backward(g, acc):
        lead = feat.shape[:-3]
        g2 = g.reshape((-1,) + g.shape[len(lead):])
        f2 = feat.data.reshape((-1,) + feat.shape[len(lead):])
        dw = np.einsum("ntj,nctj->jc", g2, f2)
        db = g2.sum(axis=(0, 1))
        for j, (w_id, w_shape, b_id, b_shape) in enumerate(head_ids):
            acc(w_id, dw[j].reshape(w_shape))
            acc(b_id, db[j:j + 1].reshape(b_shape))
        acc(feat.id, np.einsum("jc,...tj->...ctj", weight, g))

    return _record(out, (feat, *weights, *biases), backward)


def bias_add_row(a: Tensor, bias: Tensor) -> Tensor:
    """Add a length-N bias to every row of an (R, N) matrix."""
    if a.data.ndim != 2 or bias.data.ndim != 1 or a.shape[1] != bias.shape[0]:
        raise ShapeError(f"bias_add_row: shapes {a.shape} and {bias.shape}")
    out = Tensor._wrap(a.data + bias.data[None, :])
    a_id, bias_id = a.id, bias.id

    def backward(g, acc):
        acc(a_id, g)
        acc(bias_id, g.sum(axis=0))

    return _record(out, (a, bias), backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.asarray(a.data.sum()))
    in_shape, a_id = a.shape, a.id

    def backward(g, acc):
        acc(a_id, np.broadcast_to(g, in_shape).copy())

    return _record(out, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    out = Tensor._wrap(np.asarray(a.data.mean()))
    in_shape, a_id = a.shape, a.id

    def backward(g, acc):
        acc(a_id, np.broadcast_to(g / n, in_shape).copy())

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
    dim, a_id = a.shape[axis], a.id
    if before < 0 or after < 0 or dim == 0:
        raise ShapeError(f"pad_edge: pads ({before}, {after}) must be non-negative and "
                         f"axis {axis} of {a.shape} non-empty")
    # One gather of clipped indices: much cheaper per call than np.pad.
    out = Tensor._wrap(np.take(a.data, np.clip(np.arange(-before, dim + after), 0, dim - 1),
                               axis=axis))
    lead = (slice(None),) * (axis % a.data.ndim)  # index ``lead + (s,)`` slices ``axis``

    def backward(g, acc):
        grad = np.array(g[lead + (slice(before, before + dim),)])
        if before:
            grad[lead + (slice(0, 1),)] += g[lead + (slice(0, before),)].sum(axis, keepdims=True)
        if after:
            grad[lead + (slice(dim - 1, dim),)] += g[lead + (slice(before + dim, None),)].sum(
                axis, keepdims=True)
        acc(a_id, grad)

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


def partition_mix(
    x: Tensor,
    parts: Sequence[np.ndarray],
    edge_weights: Sequence[Tensor],
    kernels: Sequence[Tensor],
    biases: Sequence[Tensor],
) -> Tensor:
    """Node mixing of 1x1-convolved features over weighted graph partitions.

    ``x`` is (C, T, B, N), batch-last like the convolutions' maps.
    Partition q has a constant (N, N) matrix ``parts[q]`` = A_q, learnable
    (N, N) ``edge_weights[q]`` = W_q, 1x1 ``kernels[q]`` = K_q of shape
    (C_out, C, 1, 1) and ``biases[q]`` = b_q of shape (C_out,).  Returns
    (C_out, T, B, N)::

        out = sum_q graph_matmul(tanh(W_q) * A_q, conv2d(x, K_q, b_q))

    as one node.  A 1x1 kernel is one (Q*C_out, C) @ (C, T*B*N) product, so
    no windows are built, and the node mixing is one (C_out*T*B, N) @ (N, N)
    product per partition.  ``x`` gets a gradient only when the tape tracks it.
    """
    q = len(parts)
    if not (q == len(edge_weights) == len(kernels) == len(biases)) or q == 0:
        raise ShapeError(
            f"partition_mix: {q} parts, {len(edge_weights)} edge weights, "
            f"{len(kernels)} kernels, {len(biases)} biases"
        )
    if x.data.ndim != 4:
        raise ShapeError(f"partition_mix: input must be (C, T, B, N), got {x.shape}")
    c, t, b, n = x.shape
    co = kernels[0].shape[0]
    for part, w, k, bias in zip(parts, edge_weights, kernels, biases):
        if np.shape(part) != (n, n) or w.shape != (n, n):
            raise ShapeError(f"partition_mix: part {np.shape(part)}, edge weights "
                             f"{w.shape} vs {n} nodes")
        if k.shape != (co, c, 1, 1) or bias.shape != (co,):
            raise ShapeError(f"partition_mix: kernels {k.shape}, bias {bias.shape} "
                             f"vs input {x.shape}")
    k_all = np.concatenate([k.data.reshape(co, c) for k in kernels])  # (Q*C_out, C)
    x2 = x.data.reshape(c, t * b * n)
    h = k_all @ x2
    h += np.concatenate([bias.data for bias in biases])[:, None]
    h = h.reshape(q, co * t * b, n)
    tanh_w = np.tanh(np.stack([w.data for w in edge_weights]))
    parts_arr = np.stack([np.asarray(part, dtype=np.float64) for part in parts])
    mix = tanh_w * parts_arr  # (Q, N, N)
    out = Tensor._wrap((h @ mix.transpose(0, 2, 1)).sum(axis=0).reshape(co, t, b, n))
    need_dx = _tracked(_active_tape(), x)
    x_id = x.id
    param_ids = [(w.id, k.id, bias.id) for w, k, bias in zip(edge_weights, kernels, biases)]

    def backward(g, acc):
        g2 = g.reshape(co * t * b, n)
        dmix = (h.transpose(0, 2, 1) @ g2).transpose(0, 2, 1)
        dw = dmix * parts_arr * (1.0 - tanh_w * tanh_w)
        dh = (g2 @ mix).reshape(q * co, t * b * n)
        dk = dh @ x2.T
        db = dh.sum(axis=1)
        for i, (w_id, k_id, bias_id) in enumerate(param_ids):
            rows = slice(i * co, (i + 1) * co)
            acc(w_id, dw[i])
            acc(k_id, dk[rows].reshape(co, c, 1, 1))
            acc(bias_id, db[rows])
        if need_dx:
            acc(x_id, (k_all.T @ dh).reshape(c, t, b, n))

    return _record(out, (x, *edge_weights, *kernels, *biases), backward)


# ---------------------------------------------------------------------------
# The worker thread
# ---------------------------------------------------------------------------


#: The one thread besides the caller's.  It runs the odd serving passes of
#: ``model.attention_predict`` and the second half of a split convolution
#: (``_over_rows``); an executor starts no thread until its first ``submit``.
_POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="aukit-stage1")


def _new_pool() -> None:
    # A forked child has the parent's executor but not its thread: work
    # submitted to it would wait forever, so the child gets its own.
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="aukit-stage1")


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_new_pool)

_LANE = threading.local()


@contextlib.contextmanager
def worker_held():
    """While inside, no convolution this thread runs splits.

    The worker holds it while it runs submitted work, and a caller while it
    has work in flight there, so work never nests and at most two threads,
    each with its own scratch buffer, run stage 1.
    """
    held = getattr(_LANE, "held", False)
    _LANE.held = True
    try:
        yield
    finally:
        _LANE.held = held


def submit(fn: Callable, *args) -> Future:
    """``fn(*args)`` on the worker thread, where no convolution splits."""

    def run():
        with worker_held():
            return fn(*args)

    return _POOL.submit(run)


#: Multiply-adds from which a per-patch convolution splits its grid rows
#: between the caller and the worker.  Below it, handing a half over costs
#: more than it saves; a constant, not a setting (see CHANGES.md for the
#: crossover measurement).
SPLIT_MACS = 16_000_000


def _over_rows(grid: int, macs: int, half: Callable[[int, int], None]) -> None:
    """Run ``half(r0, r1)`` over the grid rows [0, grid), in one call or two.

    It splits when the grid has at least 2 rows, the convolution's
    multiply-adds ``macs`` reach ``SPLIT_MACS`` and the calling thread does
    not hold the worker (``worker_held``): the caller runs rows [0, g//2)
    and the worker rows [g//2, g) at once.  Each half writes its
    own rows of preallocated outputs with the calls one whole call would
    make per patch, so the bytes do not depend on the split.  If a half
    raises, the first failure in row order raises, once both have finished.
    """
    if grid < 2 or macs < SPLIT_MACS or getattr(_LANE, "held", False):
        half(0, grid)
        return
    other = submit(half, grid // 2, grid)
    try:
        half(0, grid // 2)
    finally:
        wait((other,))
    other.result()


# ---------------------------------------------------------------------------
# Convolution and pooling
# ---------------------------------------------------------------------------


_SCRATCH = threading.local()


def _scratch(n: int) -> np.ndarray:
    """This thread's reusable buffer of ``n`` float64 values.

    It holds one window matrix at a time and keeps the size of the largest
    one the thread has built, so a convolution writes its windows into
    pages that are already mapped instead of faulting in fresh ones each
    call.  A caller is done with it before the next call.  A per-patch
    convolution builds one block's windows at a time, so its size is
    bounded by one block (``BLOCK_VALUES``, or one patch's windows where a
    patch needs more), or by the window matrix of a whole-map convolution,
    whose map is one patch.
    """
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < n:
        _SCRATCH.buf = None  # free the old buffer before mapping a larger one
        buf = _SCRATCH.buf = np.empty(n)
    return buf[:n]


#: Window-matrix values a block of a per-patch convolution builds at most:
#: 2**18 float64 values, 2 MB, about one core's L2 cache.  A constant, not a
#: setting (see CHANGES.md for the candidates measured).
BLOCK_VALUES = 2**18


def _blocks(grid: int, rows: tuple[int, int], per_patch: int) -> list[tuple[slice, slice, slice]]:
    """The blocks of grid rows [r0, r1), each as (grid rows, grid columns, patch numbers).

    When the windows of one grid row, ``per_patch`` values for each of its
    ``grid`` patches, fit ``BLOCK_VALUES``, a block is as many whole rows
    as fit; otherwise it is a run of as many patches of one row as fit, at
    least one.  Either way the block's patches are consecutive in row-major
    order, so ``at`` slices them out of every per-patch array.
    """
    r0, r1 = rows
    fit = max(1, int(min(BLOCK_VALUES / max(per_patch, 1), grid * grid)))  # no frames: 0
    if fit >= grid:
        step = fit // grid
        spans = [(slice(r, min(r + step, r1)), slice(0, grid)) for r in range(r0, r1, step)]
    else:
        spans = [(slice(r, r + 1), slice(j, min(j + fit, grid)))
                 for r in range(r0, r1) for j in range(0, grid, fit)]
    return [(rs, cs, slice(rs.start * grid + cs.start, (rs.stop - 1) * grid + cs.stop))
            for rs, cs in spans]


def _over_blocks(grid: int, macs: int, per_patch: int, block: Callable) -> None:
    """Run ``block(rows, cols, at)`` on every block of the rows :func:`_over_rows` hands out."""

    def half(r0, r1):
        for rs, cs, at in _blocks(grid, (r0, r1), per_patch):
            block(rs, cs, at)

    _over_rows(grid, macs, half)


def _grid_view(a: np.ndarray, grid: int) -> np.ndarray:
    """A (C, H, W, B) map as its g x g grid of patches, (g, g, C, H/g, W/g, B): a view."""
    c, hh, ww, b = a.shape
    return a.reshape(c, grid, hh // grid, grid, ww // grid, b).transpose(1, 3, 0, 2, 4, 5)


def _cut(patches: np.ndarray) -> np.ndarray:
    """(R, J, C, h, w, B) patches as a contiguous (R*J, C, h*w*B), a view if they are contiguous."""
    r, j, c = patches.shape[:3]
    return np.ascontiguousarray(patches).reshape(r * j, c, -1)


def _paste(grid_view: np.ndarray, rs: slice, cs: slice, block: np.ndarray) -> None:
    """Write a block's (P', C, h*w*B) patch outputs into their place in ``grid_view``."""
    dst = grid_view[rs, cs]
    dst[...] = block.reshape(dst.shape)


def _windows(patches: np.ndarray, kh: int, kw: int, ph: int, pw: int) -> np.ndarray:
    """Channel-major im2col of (R, J, C, h, w, B) patches, each zero-padded on its own.

    Returns the (R*J, C*k_h*k_w, oh*ow*B) window matrix, columns in (oy,
    ox, b) order, oh = h + 2*ph - k_h + 1 and likewise ow: padding is one
    copy, and laying the windows out is one more, in which every copied run
    is ow*B contiguous values.  A matrix that is a view of ``patches`` (one
    patch, a 1x1 kernel, no padding) is not copied; otherwise it is written
    into the calling thread's :func:`_scratch` buffer.
    """
    r, j, c, h, w, b = patches.shape
    oh, ow = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    if ph or pw:  # zeros plus one slice copy: several times faster than np.pad here
        xp = np.zeros((r, j, c, h + 2 * ph, w + 2 * pw, b))
        xp[:, :, :, ph : ph + h, pw : pw + w] = patches
    else:
        xp = patches
    s = xp.strides
    win = as_strided(xp, xp.shape[:3] + (kh, kw, oh, ow, b), s[:5] + s[3:], writeable=False)
    if not win.flags["C_CONTIGUOUS"]:
        win2 = _scratch(win.size).reshape(win.shape)
        np.copyto(win2, win)
        win = win2
    return win.reshape(r * j, c * kh * kw, oh * ow * b)


def _grouped_conv(
    x: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray,
    padding: tuple[int, int],
    tanh: bool = False,
) -> tuple[np.ndarray, Callable]:
    """Cross-correlation of a g x g grid of patches, each with its own kernel bank.

    ``x`` is (C_in, H, W, B), cut row-major into P = g*g patches of H/g x W/g;
    ``kernels`` is (P, C_out, C_in, k_h, k_w) and ``bias`` (P, C_out).  Each
    patch is zero-padded on its own.  Returns the (C_out, g*oh, g*ow, B) map
    of patch outputs pasted back in place, passed through tanh when
    ``tanh``, and ``backward(g, need_dx) -> (dx, dkernels, dbias)``, where
    ``dx`` is None unless ``need_dx``.

    The forward keeps no window matrix: ``backward`` closes over ``x``, the
    kernels and, for a fused tanh, the output, which the caller holds
    anyway.  ``dx = flipped @ Wg`` correlates ``g`` with the kernels
    flipped in both spatial axes and C_in, C_out swapped (arXiv 1603.07285),
    where ``Wg`` are the windows of ``g`` at padding k-1-p, so padding must
    lie in 0..k-1.  The kernel gradient comes from whichever windows are
    smaller by channels: ``g2 @ windows(x)ᵀ`` when C_in < C_out (the frame
    layer, a widening layer), else ``Wg @ x_patchesᵀ`` flipped back, which
    reuses ``Wg``.  The choice follows the shapes, not whether ``dx`` is
    needed: the two products sum the same terms at other positions of the
    reduction, and BLAS groups a sum by position, so the kernel gradient
    would otherwise depend in its last bits on whether the input is tracked.

    Forward and backward each run over the grid rows through
    :func:`_over_rows`, so a large per-patch convolution runs on two
    threads, and each half walks its rows in :func:`_blocks`.  A block
    cuts and pads only its own patches, builds their windows in the
    thread's scratch buffer, runs their GEMMs and finishes them where they
    are: the forward adds the bias, applies tanh and pastes the block into
    the output map; the backward forms g·(1-y²) for a fused tanh, pastes
    its ``dx`` and flips its kernels and kernel gradients.  Every patch's
    products are the same calls whatever the split and the blocks, and the
    rest is elementwise, so the bytes depend on neither.
    """
    p, co, ci, kh, kw = kernels.shape
    _, hh, ww, b = x.shape
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
    macs = p * co * ci * kh * kw * oh * ow * b
    flat = kernels.reshape(p, co, ci * kh * kw)
    # Every full-size output is allocated here, on the calling thread; a
    # one-patch map is its own block, which writes it in place.
    y = np.empty((co, grid * oh, grid * ow, b))
    x_grid, y_grid = _grid_view(x, grid), _grid_view(y, grid)

    def forward(rs, cs, at):
        yb = y.reshape(1, co, -1) if p == 1 else np.empty((at.stop - at.start, co, oh * ow * b))
        np.matmul(flat[at], _windows(x_grid[rs, cs], kh, kw, ph, pw), out=yb)
        yb += bias[at, :, None]
        if tanh:
            np.tanh(yb, out=yb)
        if p > 1:
            _paste(y_grid, rs, cs, yb)

    _over_blocks(grid, macs, ci * kh * kw * oh * ow * b, forward)
    y_kept = y_grid if tanh else None  # only a fused tanh's backward reads the output

    def backward(g, need_dx):
        g_grid = _grid_view(g, grid)
        dx = np.empty(x.shape) if need_dx else None
        dx_grid = _grid_view(dx, grid) if need_dx else None
        dk = np.empty(kernels.shape)
        db = np.empty((p, co))
        g_windows = need_dx or ci >= co
        per_patch = max(co * kh * kw * h * w * b if g_windows else 0,
                        ci * kh * kw * oh * ow * b if ci < co else 0)

        def block(rs, cs, at):
            n = at.stop - at.start
            g2 = _cut(g_grid[rs, cs])  # (P', C_out, oh*ow*B): the 1x1 windows of g
            if tanh:
                yb = _cut(y_kept[rs, cs])
                g2 = g2 * (1.0 - yb * yb)
            if g_windows:  # (P', C_out*k_h*k_w, h*w*B)
                wg = _windows(g2.reshape(rs.stop - rs.start, cs.stop - cs.start, co, oh, ow, b),
                              kh, kw, kh - 1 - ph, kw - 1 - pw)
            if need_dx:
                flipped = kernels[at, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4).reshape(n, ci, -1)
                dxb = dx.reshape(1, ci, -1) if p == 1 else np.empty((n, ci, h * w * b))
                np.matmul(flipped, wg, out=dxb)
                if p > 1:
                    _paste(dx_grid, rs, cs, dxb)
            if ci < co:  # after dx: these windows take over the scratch buffer from Wg
                x2 = _windows(x_grid[rs, cs], kh, kw, ph, pw)
                np.matmul(g2, x2.transpose(0, 2, 1), out=dk.reshape(p, co, -1)[at])
            else:
                dkb = np.matmul(wg, _cut(x_grid[rs, cs]).transpose(0, 2, 1))
                dk[at] = dkb.reshape(n, co, kh, kw, ci)[:, :, ::-1, ::-1].transpose(0, 1, 4, 2, 3)
            db[at] = g2.sum(axis=2)

        _over_blocks(grid, macs, per_patch, block)
        return dx, dk, db

    return y, backward


def _conv(op: str, input: Tensor, kernels: Tensor, bias: Tensor, padding, tanh: bool) -> Tensor:
    """Shared node of both convolutions; ``kernels`` may lack the bank axis."""
    if (
        input.data.ndim != 4
        or kernels.data.ndim != (4 if op == "conv2d" else 5)
        or input.shape[0] != kernels.shape[-3]
    ):
        raise ShapeError(f"{op}: input {input.shape} vs kernels {kernels.shape}")
    if bias.shape != kernels.shape[:-3]:
        raise ShapeError(f"{op}: bias shape {bias.shape} != {kernels.shape[:-3]}")
    banks = kernels.data.reshape((-1,) + kernels.shape[-4:])
    y, grads = _grouped_conv(input.data, banks, bias.data.reshape(banks.shape[:2]), padding, tanh)
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
    tanh: bool = False,
) -> Tensor:
    """2-D cross-correlation with zero padding, then tanh when ``tanh``.

    ``input`` is (C_in, H, W, B); ``kernels`` is (C_out, C_in, k_h, k_w);
    ``bias`` is (C_out,).  Returns (C_out, H', W', B), H' = H + 2*pad - k + 1.
    This is the one-patch case of :func:`conv2d_per_patch`.  With ``tanh``
    the op is one node with the bytes of ``tanh(conv2d(...))``.
    """
    return _conv("conv2d", input, kernels, bias, padding, tanh)


def conv2d_per_patch(
    input: Tensor,
    kernels: Tensor,
    bias: Tensor,
    padding: tuple[int, int] = (1, 1),
    tanh: bool = False,
) -> Tensor:
    """Stride-1 cross-correlation with an independent kernel bank per patch.

    ``input`` is a whole map (C_in, H, W, B); ``kernels`` is (P, C_out,
    C_in, k_h, k_w) with P = g*g, and ``bias`` is (P, C_out).  The map is cut
    into a g x g grid of H/g x W/g patches, numbered row-major; each patch is
    zero-padded and convolved on its own with its bank, and the results are
    pasted back in place: (C_out, H, W, B) at padding (k-1)/2.  With
    ``tanh`` each block of patches is passed through tanh before it is
    pasted: one node with the bytes of ``tanh(conv2d_per_patch(...))``.
    """
    return _conv("conv2d_per_patch", input, kernels, bias, padding, tanh)


def maxpool2d(input: Tensor) -> Tensor:
    """Max over non-overlapping 2x2 fields of a (C, H, W, B) batch.

    On ties the first cell in row-major order within the field receives the
    whole gradient.
    """
    if input.data.ndim != 4:
        raise ShapeError(f"maxpool2d: bad rank for shape {input.shape}")
    c, h, w, b = input.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d: spatial dims ({h}, {w}) must be even")
    # The four cells of every field in row-major order, each (C, H/2, W/2, B).
    cells = input.data.reshape(c, h // 2, 2, w // 2, 2, b).transpose(2, 4, 0, 1, 3, 5)
    cells = cells.reshape(4, c, h // 2, w // 2, b)
    out = Tensor._wrap(cells.max(axis=0))
    if not _tracked(_active_tape(), input):
        return out  # nothing records the node, so the tie mask is not needed
    first = cells == out.data  # then keep only the first cell holding the max
    first[1] &= ~first[0]
    first[2] &= ~(first[0] | first[1])
    first[3] = ~(first[0] | first[1] | first[2])
    input_id = input.id

    def backward(g, acc):
        dx = np.where(first, g, 0.0).reshape(2, 2, c, h // 2, w // 2, b)
        acc(input_id, dx.transpose(2, 3, 0, 4, 1, 5).reshape(c, h, w, b))

    return _record(out, (input,), backward)


def global_avg_pool(input: Tensor) -> Tensor:
    """Mean over the spatial axes: (B, C, H, W) -> (B, C)."""
    if input.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: bad rank for shape {input.shape}")
    b, c, h, w = input.shape
    out = Tensor._wrap(input.data.mean(axis=(2, 3)))
    input_id = input.id

    def backward(g, acc):
        acc(input_id, np.broadcast_to(g[:, :, None, None] / (h * w), (b, c, h, w)).copy())

    return _record(out, (input,), backward)


def _read_mask(n: int, k: int, pad: int, out: int) -> np.ndarray:
    """(k, n) 0/1 matrix: 1 where kernel offset d reads input index y for some output."""
    y = np.arange(n)[None, :] - np.arange(k)[:, None] + pad
    return ((y >= 0) & (y < out)).astype(np.float64)


def attention_pool(
    maps: Tensor,
    feat: Tensor,
    kernels: Sequence[Tensor],
    biases: Sequence[Tensor],
    padding: tuple[int, int],
) -> Tensor:
    """Spatial mean of one convolution of each gated feature map, all at once.

    ``maps`` is (M, H, W, B) and ``feat`` (C, H, W, B); ``kernels`` holds M
    banks (C_out, C, k_h, k_w) and ``biases`` M vectors (C_out,), so each
    bank gets its own gradient.  Returns (B, M, C_out) with ``out[:, j]`` the
    spatial mean of ``conv2d(maps[j] * feat, bank j, padding)``, padding in
    0..k-1 as for :func:`conv2d`.

    The mean is linear, so it moves ahead of the convolution (as CAM swaps
    pool and classifier, arXiv 1512.04150): the mean output is the kernels
    applied to window sums ``S[b, j, d, e, c] = sum_{y,x} E[d, e, y, x]
    maps[j, y, x, b] feat[c, y, x, b]``, where E marks the inputs that kernel
    offset (d, e) reads for some output.  S is one (M*k_h*k_w, H*W) @ (H*W,
    C) product per frame, and the backward is two more of that size.
    """
    bank = kernels[0].shape if kernels else ()
    if (len(bank) != 4 or maps.data.ndim != 4 or feat.data.ndim != 4
            or maps.shape != (len(kernels),) + feat.shape[1:] or feat.shape[0] != bank[1]
            or len(biases) != len(kernels)
            or any(k.shape != bank or bias.shape != bank[:1] for k, bias in zip(kernels, biases))):
        raise ShapeError(f"attention_pool: maps {maps.shape}, feat {feat.shape}, banks "
                         f"{[k.shape for k in kernels]}, biases {[bias.shape for bias in biases]}")
    m, (co, c, kh, kw), (_, hh, ww, b) = len(kernels), bank, feat.shape
    ph, pw = padding
    if not (0 <= ph < kh and 0 <= pw < kw):
        raise ShapeError(f"attention_pool: padding {padding} outside 0..k-1 for kernel {kh}x{kw}")
    oh, ow = hh + 2 * ph - kh + 1, ww + 2 * pw - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"attention_pool: kernel {kh}x{kw} exceeds input {hh}x{ww}")
    taps, hw, scale = kh * kw, hh * ww, 1.0 / (oh * ow)
    reads = (_read_mask(hh, kh, ph, oh)[:, None, :, None]
             * _read_mask(ww, kw, pw, ow)[None, :, None, :]).reshape(taps, hw)
    # The products run per frame: frames first, (B, C, H*W) and (B, M, H*W).
    f2 = np.ascontiguousarray(feat.data.reshape(c, hw, b).transpose(2, 0, 1))
    maps2 = maps.data.reshape(m, 1, hw, b).transpose(3, 0, 1, 2)
    gated = (maps2 * reads).reshape(b, m * taps, hw)
    sums = gated @ f2.transpose(0, 2, 1)  # (B, M*k_h*k_w, C)
    s2 = sums.reshape(b, m, taps, c).transpose(1, 3, 2, 0).reshape(m, c * taps, b)
    k2 = np.stack([k.data for k in kernels]).reshape(m, co, c * taps)
    bias2 = np.stack([bias.data for bias in biases])
    out = Tensor._wrap((k2 @ s2).transpose(2, 0, 1) * scale + bias2)
    maps_id, feat_id = maps.id, feat.id
    bank_ids = [(k.id, bias.id) for k, bias in zip(kernels, biases)]

    def backward(g, acc):
        gs = g.transpose(1, 0, 2) * scale  # (M, B, C_out)
        dk = gs.transpose(0, 2, 1) @ s2.transpose(0, 2, 1)
        db = g.sum(axis=0)
        for j, (k_id, bias_id) in enumerate(bank_ids):
            acc(bias_id, db[j])
            acc(k_id, dk[j].reshape(co, c, kh, kw))
        dsums = (gs @ k2).reshape(m, b, c, taps).transpose(1, 0, 3, 2).reshape(b, m * taps, c)
        dmaps = np.einsum("bjtp,tp->bjp", (dsums @ f2).reshape(b, m, taps, hw), reads)
        acc(maps_id, dmaps.transpose(1, 2, 0).reshape(m, hh, ww, b))
        dfeat = dsums.transpose(0, 2, 1) @ gated  # (B, C, H*W)
        acc(feat_id, dfeat.transpose(1, 2, 0).reshape(c, hh, ww, b))

    return _record(out, (maps, feat, *kernels, *biases), backward)


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
