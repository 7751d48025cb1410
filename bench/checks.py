"""Output checks of the benchmark.

Every check is an independent computation or a property the output must
have; none compares against a stored copy of an earlier output.  Each
returns ``(ok, detail)`` so that the harness can count a check that does
not hold as a failed operation and still report what it saw.
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

Result = Tuple[bool, str]

#: Tolerance for values that the program and the check compute in a
#: different order (float64 round-off only).
CLOSE = 1e-12


def labels_binary(labels: Iterable[np.ndarray]) -> Result:
    for i, arr in enumerate(labels):
        if not np.isin(arr, (0.0, 1.0)).all():
            return False, f"labels of video {i} hold values other than 0 and 1"
    return True, ""


def blob_images(centers: np.ndarray, radius: np.ndarray, size: int) -> np.ndarray:
    """One Gaussian blob per label, sigma = radius / 2, peak 1 at the center."""
    ys = np.arange(size, dtype=np.float64)[:, None]
    xs = np.arange(size, dtype=np.float64)[None, :]
    out = np.empty((len(centers), size, size))
    for j, ((cy, cx), r) in enumerate(zip(centers, radius)):
        sigma = r / 2.0
        out[j] = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma * sigma))
    return out


#: The residual standard deviation may differ from the spec's noise level
#: by this share; with over 10^5 residual samples the sampling error of a
#: correct generator is below a tenth of it.
NOISE_REL_TOL = 0.02


def residual_is_noise(
    frames: Sequence[np.ndarray], labels: Sequence[np.ndarray], spec
) -> Result:
    """Frames minus the blobs of their active labels are zero-mean noise.

    The residual mean must lie within 5 standard errors of 0, and its
    standard deviation within ``NOISE_REL_TOL`` of ``spec.noise``.
    """
    blobs = blob_images(np.asarray(spec.centers), np.asarray(spec.radius), spec.image_size)
    residual = np.concatenate([
        (f - np.einsum("tj,jhw->thw", y, blobs)[:, None]).ravel()
        for f, y in zip(frames, labels)
    ])
    mean, std = float(residual.mean()), float(residual.std())
    limit = 5.0 * spec.noise / math.sqrt(residual.size)
    if abs(mean) > limit:
        return False, f"residual mean {mean:.3g} exceeds {limit:.3g}"
    if abs(std - spec.noise) > NOISE_REL_TOL * spec.noise:
        return False, f"residual std {std:.6g} vs noise {spec.noise}"
    return True, f"residual mean {mean:.2e}, std {std:.6f}"


def graph_consistent(graph) -> Result:
    columns = graph.a_norm.sum(axis=0)
    if not np.allclose(columns, 1.0, rtol=0.0, atol=CLOSE):
        return False, f"a_norm column sums {columns}"
    parts = graph.parts[0] + graph.parts[1] + graph.parts[2]
    if not np.allclose(parts, graph.a_norm, rtol=0.0, atol=CLOSE):
        return False, "partitions do not sum to a_norm"
    return True, ""


def all_finite(values: Iterable[float]) -> Result:
    values = list(values)
    bad = [v for v in values if not math.isfinite(v)]
    if not values or bad:
        return False, f"{len(bad)} of {len(values)} losses are not finite"
    return True, f"{len(values)} losses"


def identical_entries(reference: Mapping, others: Sequence[Mapping]) -> Result:
    """Every mapping holds the same names and the same bytes as ``reference``."""
    for k, other in enumerate(others):
        if list(other) != list(reference):
            return False, f"call {k} returned other entry names"
        for name, value in reference.items():
            if other[name].data.tobytes() != value.data.tobytes():
                return False, f"call {k} differs in entry {name!r}"
    return True, f"{len(others)} calls"


def directional_derivative(
    loss_at: Callable[[Dict[str, np.ndarray]], float],
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    eps: float = 1e-6,
    rtol: float = 1e-5,
) -> Result:
    """Central difference of the loss along g/|g| equals |g|.

    ``loss_at`` evaluates the loss by forward passes only, so this does not
    rely on the backward closures that produced ``grads``.
    """
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if not norm > 0.0:
        return False, "gradient is zero"

    def shifted(sign: float) -> Dict[str, np.ndarray]:
        out = dict(params)
        for name, g in grads.items():
            out[name] = params[name] + (sign * eps / norm) * g
        return out

    slope = (loss_at(shifted(1.0)) - loss_at(shifted(-1.0))) / (2.0 * eps)
    ok = abs(slope - norm) <= rtol * norm
    return ok, f"difference quotient {slope:.9g} vs |g| {norm:.9g}"


def grads_complete(
    params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray], names: Sequence[str]
) -> Result:
    for name in names:
        g = grads.get(name)
        if g is None:
            return False, f"no gradient for {name!r}"
        if g.shape != params[name].shape:
            return False, f"gradient of {name!r} has shape {g.shape}"
    return True, f"{len(names)} entries"


def probabilities_valid(probs: np.ndarray, t: int, m: int) -> Result:
    if probs.shape != (t, m):
        return False, f"shape {probs.shape}, expected {(t, m)}"
    if not (np.all(probs >= 0.0) and np.all(probs <= 1.0)):
        return False, "probabilities outside [0, 1]"
    return True, ""


def halves_agree(whole: np.ndarray, first: np.ndarray, second: np.ndarray) -> Result:
    """Frames are independent at stage 1: a split batch gives the same rows."""
    joined = np.concatenate([first, second])
    if joined.shape != whole.shape:
        return False, f"shapes {joined.shape} vs {whole.shape}"
    err = float(np.abs(joined - whole).max())
    return err <= CLOSE, f"max difference {err:.3g}"


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def head_on_features(
    probs: np.ndarray, features: np.ndarray, weights: np.ndarray, biases: np.ndarray
) -> Result:
    """A stack of identity layers leaves sigmoid(w_j . f[:, t, j] + b_j).

    ``features`` is (8c, t, m), ``weights`` (m, 8c), ``biases`` (m,).
    """
    expected = sigmoid(np.einsum("ctj,jc->tj", features, weights) + biases)
    if expected.shape != probs.shape:
        return False, f"shapes {probs.shape} vs {expected.shape}"
    err = float(np.abs(expected - probs).max())
    return err <= CLOSE, f"max difference {err:.3g}"


def confusion_scores(probs: np.ndarray, truth: np.ndarray) -> Dict[str, np.ndarray]:
    """Precision, recall and F1 per label from counts, threshold 0.5."""
    pred = probs >= 0.5
    real = truth == 1.0
    tp = np.sum(pred & real, axis=0).astype(np.float64)
    fp = np.sum(pred & ~real, axis=0).astype(np.float64)
    fn = np.sum(~pred & real, axis=0).astype(np.float64)
    precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1.0), 0.0)
    recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1.0), 0.0)
    f1 = np.where(tp > 0, 2.0 * tp / np.maximum(2.0 * tp + fp + fn, 1.0), 0.0)
    return {"precision": precision, "recall": recall, "f1": f1}


def eval_csv_matches(path, probs: np.ndarray, truth: np.ndarray) -> Result:
    """The per-AU rows of an ``aukit eval`` CSV equal the counted scores."""
    expected = confusion_scores(probs, truth)
    with open(path, newline="", encoding="utf-8") as fp:
        rows = {row["au"]: row for row in csv.DictReader(fp)}
    for j in range(truth.shape[1]):
        row = rows.get(f"au_{j + 1}")
        if row is None:
            return False, f"no row for au_{j + 1}"
        for key, values in expected.items():
            got = float(row[key])
            if abs(got - values[j]) > CLOSE:
                return False, f"au_{j + 1} {key} {got} vs counted {values[j]}"
    return True, f"{truth.shape[1]} labels over {truth.shape[0]} frames"


def infer_csv_matches(path, probs: np.ndarray) -> Result:
    """An ``aukit infer`` CSV holds one row per frame equal to ``probs``."""
    with open(path, newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))[1:]
    got = np.array([[float(v) for v in row[1:]] for row in rows])
    if got.shape != probs.shape:
        return False, f"shape {got.shape} vs {probs.shape}"
    if [int(row[0]) for row in rows] != list(range(len(rows))):
        return False, "frame indices are not 0..t-1"
    err = float(np.abs(got - probs).max())
    return err <= CLOSE, f"max difference {err:.3g}"


#: Tensors with at least this many values also have their variance checked.
VARIANCE_MIN_SIZE = 10_000
#: Allowed relative deviation of the sample variance from 1/fan_in; for
#: 10^4 uniform values the standard error is under 1%.
VARIANCE_REL_TOL = 0.05


def fan_in(name: str, shape: Tuple[int, ...]) -> int:
    if name.endswith(".kernels"):
        # (C_out, C_in, k, k), or (P, C_out, C_in, k, k) for per-patch banks.
        return int(np.prod(shape[1:] if len(shape) == 4 else shape[2:]))
    return int(shape[-1])  # head weights: (1, 8c) and (8c,)


def init_in_range(entries: Mapping) -> Result:
    """Uniform fan-in init: weights within sqrt(3/fan_in), variance 1/fan_in.

    The documented constants also hold: biases and phi2 start at zero and
    edge re-weightings at one.
    """
    checked = 0
    for name, tensor in entries.items():
        data = tensor.data
        if name.endswith(".bias") or ".phi2." in name:
            if np.any(data != 0.0):
                return False, f"{name} is not all zero"
            continue
        if ".edge." in name:
            if np.any(data != 1.0):
                return False, f"{name} is not all one"
            continue
        n = fan_in(name, data.shape)
        bound = math.sqrt(3.0 / n)
        if np.abs(data).max() > bound:
            return False, f"{name} exceeds +-{bound:.4g}"
        if data.size >= VARIANCE_MIN_SIZE:
            var = float(data.var())
            if abs(var * n - 1.0) > VARIANCE_REL_TOL:
                return False, f"{name} variance {var:.4g} vs 1/fan_in {1.0 / n:.4g}"
            checked += 1
    return True, f"{len(entries)} entries, {checked} variances"
