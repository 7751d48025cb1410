"""Training losses: weighted multi-label cross-entropy plus attention penalty."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DomainError, ShapeError

#: Probability clamp inside log terms; prevents -inf on saturated sigmoids.
PROB_EPS = 1e-7

#: Occurrence-rate floor for labels that never occur (weight formula
#: is undefined at rate 0).
RATE_EPS = 1e-3


def class_weights(occurrence_rates: np.ndarray) -> np.ndarray:
    """Inverse-frequency weights, normalized to sum to 1.

    w_j = (1/o_j) / sum_k (1/o_k), with rates floored at RATE_EPS.
    """
    rates = np.asarray(occurrence_rates, dtype=np.float64)
    if rates.ndim != 1:
        raise ShapeError(f"occurrence rates must be 1-D, got shape {rates.shape}")
    if np.any(rates < 0.0) or np.any(rates > 1.0):
        raise DomainError("occurrence rates must lie in [0, 1]")
    inverse = 1.0 / np.maximum(rates, RATE_EPS)
    return inverse / inverse.sum()


def au_detection_loss(p_hat: T.Tensor, labels: np.ndarray, weights: np.ndarray) -> T.Tensor:
    """Weighted binary cross-entropy, averaged over frames (and batch).

    Accepts per-sequence predictions (t, m) or a batch (b, t, m); the
    label axis m is last, and ``weights`` holds one weight per label.
    Labels must be 0 or 1: each term is then w * log of the probability
    given to the true label, ``p_true = p * (2y - 1) + (1 - y)``.
    """
    shape = p_hat.shape
    if len(shape) not in (2, 3):
        raise ShapeError(f"predictions must be (t, m) or (b, t, m), got {shape}")
    truth = np.asarray(labels, dtype=np.float64)
    if truth.shape != shape:
        raise ShapeError(f"labels shape {truth.shape} != predictions shape {shape}")
    if np.any((truth != 0.0) & (truth != 1.0)):
        raise DomainError("labels must be 0 or 1")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (shape[-1],):
        raise ShapeError(f"weights shape {w.shape} != ({shape[-1]},)")

    clamped = T.clamp(p_hat, PROB_EPS, 1.0 - PROB_EPS)
    p_true = T.add(T.mul(clamped, T.Tensor(2.0 * truth - 1.0)), T.Tensor(1.0 - truth))
    weighted = T.mul(T.log(p_true), T.Tensor(np.broadcast_to(w, shape)))
    frames = p_hat.size // shape[-1]
    return T.scalar_mul(T.sum_all(weighted), -1.0 / frames)


def attention_stage_loss(
    p_hat: T.Tensor,
    attention: T.Tensor,
    labels: np.ndarray,
    weights: np.ndarray,
    lambda_r: float,
) -> T.Tensor:
    """Detection loss plus lambda_r times the mean attention response.

    ``attention`` stacks the per-frame per-label maps; since every map
    has the same size, the average of per-map means equals the grand
    mean over all entries.
    """
    if lambda_r < 0.0:
        raise DomainError(f"regularizer weight must be >= 0, got {lambda_r}")
    detection = au_detection_loss(p_hat, labels, weights)
    if lambda_r == 0.0:
        return detection
    return T.add(detection, T.scalar_mul(T.mean_all(attention), lambda_r))
