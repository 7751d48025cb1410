"""Two-stage optimization: momentum SGD, step schedules, one step loop.

Stage one fits the backbone and per-label attention branches on single
frames.  Stage two freezes those parameters (by default), caches the
per-sequence feature tensors they produce, and fits the graph stack plus
per-node heads on fixed-length windows.  Both stages run ``_fit``, the one
step loop; a stage supplies only its set-up and a ``batch_losses`` callback
that gives a batch's loss in parts, each run forward and backward on its own
tape: stage one's parts hold at most ``FRAMES_PER_PASS`` frames each.

Determinism: every random choice is drawn from generators derived from the
training seed, so a fixed seed and dataset reproduce checkpoints bit for
bit.  Each epoch's generator draws the shuffle and is then passed to the
callback, which may draw more from it (stage one's crop offsets and mirror
flips, in window order, before any part runs).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .config import HyperParams
from .dataset import VideoSequence, iter_windows
from .errors import ConfigError, DataError, IoError, NumericalError
from .graph import RelationGraph
from .losses import attention_stage_loss, au_detection_loss, class_weights
from .model import (
    FRAMES_PER_PASS,
    Entries,
    init_attention_entries,
    init_relation_entries,
    model_dims,
    sequence_features,
    stage1_entries,
    stage1_forward,
    stage2_forward,
)
from .rng import Xoshiro256pp, derive_seed
from .serialize import atomic_write

# Stream tags, one per consumer of the training seed.
_ATTENTION_EPOCH_STREAM = 21
_RELATION_EPOCH_STREAM = 23

LOG_HEADER = ("stage", "epoch", "step", "lr", "loss")

#: One row per optimizer step: (stage, epoch, step, lr, loss).
LogRow = Tuple[str, int, int, float, float]


# ---------------------------------------------------------------------------
# Learning-rate schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LrSchedule:
    initial: float
    decay: float
    period: int
    max_epochs: int


def attention_schedule(hp: HyperParams) -> LrSchedule:
    return LrSchedule(hp.attention_lr, hp.attention_decay, hp.attention_period,
                      hp.attention_epochs)


def relation_schedule(hp: HyperParams) -> LrSchedule:
    return LrSchedule(hp.relation_lr, hp.relation_decay, hp.relation_period,
                      hp.relation_epochs)


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    """Step decay: initial * decay ** floor(epoch / period)."""
    if epoch < 0 or epoch >= schedule.max_epochs:
        raise ConfigError(
            f"epoch {epoch} outside schedule range [0, {schedule.max_epochs})"
        )
    return schedule.initial * schedule.decay ** (epoch // schedule.period)


# ---------------------------------------------------------------------------
# Momentum SGD
# ---------------------------------------------------------------------------


#: Largest number of values updated as one flat array; a larger parameter
#: is a chunk of its own.  It bounds the extra memory of the flat copies.
_CHUNK = 1 << 17


@dataclass
class OptimizerState:
    momentum: float = 0.9
    weight_decay: float = 5e-4
    velocity: Dict[str, np.ndarray] = field(default_factory=dict)


def _chunks(names: Sequence[str], entries: Entries, velocity) -> List[List[str]]:
    """Runs of consecutive names of at most ``_CHUNK`` values in all.

    A run also ends where a name's velocity starts or stops existing, so a
    chunk is updated by one rule.
    """
    chunks: List[List[str]] = []
    run: List[str] = []
    size, run_has_v = 0, False
    for name in names:
        n, has_v = entries[name].size, name in velocity
        if run and (size + n > _CHUNK or has_v != run_has_v):
            chunks.append(run)
            run, size = [], 0
        run.append(name)
        size += n
        run_has_v = has_v
    if run:
        chunks.append(run)
    return chunks


def _joined(arrays: Sequence) -> np.ndarray:
    """The arrays as one flat float64 array; a lone array is not copied."""
    if len(arrays) == 1:
        return np.asarray(arrays[0], dtype=np.float64).reshape(-1)
    return np.concatenate(arrays, axis=None, dtype=np.float64)


def _check_finite(names: Sequence[str], entries: Entries, problem: str, *flats) -> None:
    """Raise ``NumericalError`` naming the first parameter whose span is not finite."""
    if all(np.isfinite(flat).all() for flat in flats):
        return
    offset = 0
    for name in names:
        n = entries[name].size
        if not all(np.isfinite(flat[offset:offset + n]).all() for flat in flats):
            raise NumericalError(f"{problem} for parameter {name!r}")
        offset += n


def sgd_step(
    entries: Entries,
    grads: Dict[str, np.ndarray],
    lr: float,
    state: OptimizerState,
) -> Entries:
    """One momentum step over the named gradients; returns updated entries.

    For each named parameter: g' = g + wd * theta, v <- mu * v + g',
    theta <- theta - lr * (g' + mu * v).  Parameters without a gradient
    entry are left untouched.  Velocities live in ``state``.

    The rule is elementwise, so it runs once per chunk of consecutive
    parameters joined into one flat array, with the bytes of a per-name
    update.  The new parameters and ``state.velocity`` are views of the
    chunks.  A non-finite gradient or update raises ``NumericalError``
    naming the parameter, and leaves ``state`` as it was.
    """
    for name, grad in grads.items():
        if name not in entries:
            raise ConfigError(f"gradient for unknown parameter {name!r}")
        if np.shape(grad) != entries[name].shape:
            raise ConfigError(
                f"gradient shape {np.shape(grad)} != parameter shape "
                f"{entries[name].shape} for {name!r}"
            )
    mu, wd = state.momentum, state.weight_decay
    done = []
    with np.errstate(over="ignore", invalid="ignore"):
        for names in _chunks(grads, entries, state.velocity):
            g = _joined([grads[n] for n in names])
            _check_finite(names, entries, "non-finite gradient", g)
            theta = _joined([entries[n].data for n in names])
            g = g + wd * theta
            if names[0] in state.velocity:
                v = mu * _joined([state.velocity[n] for n in names]) + g
            else:
                v = g
            new = theta - lr * (g + mu * v)
            _check_finite(names, entries, "update overflowed", new, v)
            done.append((names, new, v))

    updated = dict(entries)
    for names, new, v in done:
        new.setflags(write=False)
        offset = 0
        for name in names:
            shape = entries[name].shape
            n = entries[name].size
            tensor = T.Tensor._wrap(new[offset:offset + n].reshape(shape))
            tensor.requires_grad = True
            updated[name] = tensor
            state.velocity[name] = v[offset:offset + n].reshape(shape)
            offset += n
    return updated


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _collect_grads(tape: T.Tape, entries: Entries, names: Sequence[str]):
    grads: Dict[str, np.ndarray] = {}
    for name in names:
        g = tape.grad(entries[name])
        if g is not None:
            grads[name] = g
    return grads


def _training_windows(
    sequences: Sequence[VideoSequence], t: int, stage: str
) -> List[Tuple[VideoSequence, int]]:
    if not sequences:
        raise DataError(f"{stage} training needs a non-empty dataset")
    windows = list(iter_windows(sequences, t))
    if not windows:
        raise DataError(
            f"{stage} training found no length-{t} windows; "
            f"longest sequence has {max(len(s.frames) for s in sequences)} frames"
        )
    return windows


def _dataset_weights(sequences: Sequence[VideoSequence], m: int) -> np.ndarray:
    labels = np.concatenate([seq.labels for seq in sequences], axis=0)
    if labels.shape[1] != m:
        raise ConfigError(
            f"dataset has {labels.shape[1]} label columns but model expects {m}"
        )
    return class_weights(labels.mean(axis=0))


def _crop_bounds(frames: np.ndarray, l: int, stage: str) -> Tuple[int, int]:
    height, width = frames.shape[-2], frames.shape[-1]
    if height < l or width < l:
        raise ConfigError(
            f"{stage}: frames are {height}x{width}, smaller than crop size {l}"
        )
    return height - l, width - l


def _augmented_window(
    frames: np.ndarray, start: int, t: int, l: int, rng: Xoshiro256pp, stage: str
) -> np.ndarray:
    """Random crop and mirror, one draw shared by all frames of the window."""
    dy, dx = _crop_bounds(frames, l, stage)
    oy = rng.randint(dy + 1)
    ox = rng.randint(dx + 1)
    window = frames[start:start + t, :, oy:oy + l, ox:ox + l]
    if rng.random() < 0.5:
        window = window[..., ::-1]
    return np.ascontiguousarray(window)


def _center_window(frames: np.ndarray, l: int, stage: str) -> np.ndarray:
    dy, dx = _crop_bounds(frames, l, stage)
    oy, ox = dy // 2, dx // 2
    return np.ascontiguousarray(frames[:, :, oy:oy + l, ox:ox + l])


def save_training_log(path, rows: Sequence[LogRow]) -> None:
    try:
        with atomic_write(path, "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(LOG_HEADER)
            for stage, epoch, step, lr, loss in rows:
                writer.writerow([stage, epoch, step, repr(lr), repr(loss)])
    except OSError as exc:
        raise IoError(f"cannot write training log {path}: {exc}") from exc


@dataclass
class TrainResult:
    entries: Entries
    log: List[LogRow]


def _fit(
    entries: Entries, trainable: Sequence[str], windows: Sequence[Tuple[VideoSequence, int]],
    hp: HyperParams, schedule: LrSchedule, epochs: Optional[int], seed: int, stream: int,
    stage: str, batch_losses: Callable[..., List[Callable[[], T.Tensor]]],
) -> TrainResult:
    """The one step loop: momentum SGD on ``trainable`` over shuffled window batches.

    ``batch_losses(entries, batch, rng)`` returns the loss of a batch of
    ``(sequence, start)`` windows as parts, callables that each record one
    part's loss on the active tape.  The parts' gradients are added in part
    order (a left fold) and the logged loss is the sum of their losses.
    """
    total = schedule.max_epochs if epochs is None else epochs
    if total < 0:
        raise ConfigError(f"epochs must be >= 0, got {total}")
    if total > schedule.max_epochs:
        raise ConfigError(
            f"{total} epochs exceeds schedule maximum {schedule.max_epochs}"
        )
    state = OptimizerState(hp.momentum, hp.weight_decay)
    log: List[LogRow] = []
    for epoch in range(total):
        lr = lr_at(schedule, epoch)
        rng = Xoshiro256pp(derive_seed(seed, stream, epoch))
        order = list(windows)
        rng.shuffle(order)
        for step_idx, batch_start in enumerate(range(0, len(order), hp.batch_size)):
            batch = order[batch_start:batch_start + hp.batch_size]
            grads: Dict[str, np.ndarray] = {}
            value = 0.0
            for part in batch_losses(entries, batch, rng):
                with T.Tape() as tape:
                    loss = part()
                if math.isnan(float(loss.data)):
                    raise NumericalError(
                        f"NaN loss in {stage} stage at epoch {epoch} step {step_idx}"
                    )
                value += float(loss.data)
                tape.backward(loss)
                for name, g in _collect_grads(tape, entries, trainable).items():
                    grads[name] = grads[name] + g if name in grads else g
            entries = sgd_step(entries, grads, lr, state)
            log.append((stage, epoch, step_idx, lr, value))
    return TrainResult(entries, log)


# ---------------------------------------------------------------------------
# Stage one: backbone and attention branches
# ---------------------------------------------------------------------------


def train_attention_stage(
    sequences: Sequence[VideoSequence],
    hp: HyperParams,
    seed: int,
    init_entries: Optional[Entries] = None,
    epochs: Optional[int] = None,
) -> TrainResult:
    """Fit the frame-level model; returns final entries and the loss log."""
    hp.validate()
    windows = _training_windows(sequences, hp.t, "attention stage")
    weights = _dataset_weights(sequences, hp.m)

    if init_entries is None:
        entries = init_attention_entries(hp.c, hp.m, seed)
    else:  # a relation model's graph stack was fit to stage-1 features this changes
        entries = stage1_entries(init_entries)
    dims = model_dims(entries)
    if dims.c != hp.c or dims.m != hp.m:
        raise ConfigError(
            f"checkpoint sizes (c={dims.c}, m={dims.m}) do not match "
            f"config (c={hp.c}, m={hp.m})"
        )
    trainable = list(entries)

    def batch_losses(entries, batch, rng):
        clips = np.concatenate([
            _augmented_window(seq.frames, start, hp.t, hp.l, rng, "attention stage")
            for seq, start in batch])
        targets = np.concatenate([seq.labels[start:start + hp.t] for seq, start in batch])

        def part_loss(i):
            # Both loss terms are means over frames, so parts scaled by their
            # share of the frames sum to the batch's loss.
            part = slice(i, i + FRAMES_PER_PASS)
            maps, _, probs = stage1_forward(entries, T.Tensor(clips[part]))
            loss = attention_stage_loss(probs, maps, targets[part], weights, hp.lambda_r)
            return T.scalar_mul(loss, len(targets[part]) / len(targets))

        return [functools.partial(part_loss, i) for i in range(0, len(clips), FRAMES_PER_PASS)]

    return _fit(entries, trainable, windows, hp, attention_schedule(hp), epochs,
                seed, _ATTENTION_EPOCH_STREAM, "attention", batch_losses)


# ---------------------------------------------------------------------------
# Stage two: graph stack and per-node heads
# ---------------------------------------------------------------------------


def train_relation_stage(
    sequences: Sequence[VideoSequence],
    graph: RelationGraph,
    stage1: Entries,
    hp: HyperParams,
    seed: int,
    init_entries: Optional[Entries] = None,
    epochs: Optional[int] = None,
) -> TrainResult:
    """Fit the sequence-level model on top of a trained frame-level stage.

    ``hp.freeze_backbone`` (the default) trains only ``gst.*`` and ``head.*``.
    """
    hp.validate()
    dims = model_dims(stage1)
    if graph.m != dims.m:
        raise ConfigError(
            f"graph has {graph.m} nodes but checkpoint has {dims.m} branches"
        )
    windows = _training_windows(sequences, hp.t, "relation stage")
    weights = _dataset_weights(sequences, dims.m)

    if init_entries is not None:
        entries = dict(init_entries)
        resumed = model_dims(entries)
        if resumed.depth == 0:
            raise ConfigError("resume checkpoint holds no graph-stack entries")
        if (resumed.c, resumed.m) != (dims.c, dims.m):
            raise ConfigError("resume checkpoint does not match stage-1 sizes")
        if (resumed.depth, resumed.t_k) != (hp.depth, hp.t_k):
            raise ConfigError(
                f"resume checkpoint sizes (depth={resumed.depth}, t_k={resumed.t_k}) "
                f"do not match config (depth={hp.depth}, t_k={hp.t_k})"
            )
    else:
        entries = init_relation_entries(stage1, hp.t_k, hp.depth, seed)

    if hp.freeze_backbone:
        trainable = [n for n in entries if n.startswith(("gst.", "head."))]
        cached = {id(seq): sequence_features(
                      entries, _center_window(seq.frames, hp.l, "relation stage"))
                  for seq in sequences}
    else:
        trainable = [n for n in entries if not n.startswith("graph.")]

    def batch_loss(entries, batch):
        if hp.freeze_backbone:
            f0 = T.Tensor(np.stack([cached[id(seq)][:, start:start + hp.t]
                                    for seq, start in batch]))
        else:
            clips = np.concatenate([
                _center_window(seq.frames[start:start + hp.t], hp.l, "relation stage")
                for seq, start in batch])
            _, flat, _ = stage1_forward(entries, T.Tensor(clips))
            per_seq = T.reshape(flat, (len(batch), hp.t, dims.m, flat.shape[-1]))
            f0 = T.transpose(per_seq, (0, 3, 1, 2))  # (s, 8c, t, m)
        targets = np.stack([seq.labels[start:start + hp.t] for seq, start in batch])
        return au_detection_loss(stage2_forward(entries, graph, f0), targets, weights)

    def batch_losses(entries, batch, rng):  # one part: the unfrozen pass is not chunked
        return [functools.partial(batch_loss, entries, batch)]

    return _fit(entries, trainable, windows, hp, relation_schedule(hp), epochs,
                seed, _RELATION_EPOCH_STREAM, "relation", batch_losses)
