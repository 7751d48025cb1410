"""Relation-graph construction from binary label statistics.

Pipeline: Pearson correlation between label columns -> thresholded
symmetric adjacency with self-connections -> degree normalization ->
gravity center / hop distances -> three-way partition of the normalized
adjacency (diagonal, centripetal, centrifugal).

Columns of the normalized adjacency sum to 1; in float arithmetic this
holds exactly under correctly-rounded summation (``math.fsum``) for any
degree below 49, far beyond the node counts used here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, InternalInvariantError, ShapeError

#: Hop distance assigned to nodes with no path to the gravity center.
#: Compares greater than any finite distance in partition decisions.
UNREACHABLE = -1


@dataclass(frozen=True)
class RelationGraph:
    """Statistical relation graph over m label channels.

    ``gravity`` is a 0-based node index; logs report it 1-based, matching
    user-facing numbering.
    """

    m: int
    tau: float
    pcc: np.ndarray        # (m, m)
    adjacency: np.ndarray  # (m, m) 0/1
    lam: np.ndarray        # (m,) diagonal of the inverse-degree matrix
    a_norm: np.ndarray     # (m, m) column-stochastic
    parts: Tuple[np.ndarray, np.ndarray, np.ndarray]
    gravity: int
    hops: np.ndarray       # (m,) int, UNREACHABLE for disconnected nodes


def compute_pcc(labels: np.ndarray) -> np.ndarray:
    """Pearson correlation between columns; zero-variance columns get r=0."""
    data = np.asarray(labels, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeError(f"labels must be 2-D (n, m), got shape {data.shape}")
    n, m = data.shape
    if n < 2:
        raise DomainError(f"correlation needs at least 2 rows, got {n}")
    centered = data - data.mean(axis=0)
    sigma = np.sqrt(np.mean(centered**2, axis=0))
    cov = (centered.T @ centered) / n
    r = np.zeros((m, m))
    live = sigma > 0.0
    denom = np.outer(sigma, sigma)
    r[np.ix_(live, live)] = cov[np.ix_(live, live)] / denom[np.ix_(live, live)]
    np.fill_diagonal(r, np.where(live, 1.0, 0.0))
    return np.clip(r, -1.0, 1.0)


def build_adjacency(pcc: np.ndarray, tau: float) -> np.ndarray:
    """0/1 adjacency: off-diagonal edges where r >= tau, plus self-loops.

    Thresholds above 1 are allowed and yield the identity adjacency.
    """
    pcc = np.asarray(pcc, dtype=np.float64)
    m = pcc.shape[0]
    if pcc.shape != (m, m):
        raise ShapeError(f"pcc must be square, got shape {pcc.shape}")
    adjacency = (pcc >= tau).astype(np.float64)
    adjacency = np.maximum(adjacency, adjacency.T)  # guard symmetry on ties
    np.fill_diagonal(adjacency, 1.0)
    return adjacency


def normalize(adjacency: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse-degree column scaling: lam_k = 1/deg_k, a_norm[:, k] = A[:, k]*lam_k."""
    degrees = adjacency.sum(axis=1)
    if np.any(degrees == 0.0):
        raise InternalInvariantError(
            "zero-degree node despite mandatory self-connections"
        )
    lam = 1.0 / degrees
    return lam, adjacency * lam[np.newaxis, :]


def gravity_center(adjacency: np.ndarray) -> int:
    """Node with the most neighbors (off-diagonal degree); ties -> lowest index."""
    off_degree = adjacency.sum(axis=1) - np.diag(adjacency)
    return int(np.argmax(off_degree))


def hop_distances(adjacency: np.ndarray, gravity: int) -> np.ndarray:
    """BFS distances from the gravity center over off-diagonal edges."""
    m = adjacency.shape[0]
    hops = np.full(m, UNREACHABLE, dtype=np.int64)
    hops[gravity] = 0
    frontier = deque([gravity])
    while frontier:
        j = frontier.popleft()
        for k in range(m):
            if k != j and adjacency[j, k] != 0.0 and hops[k] == UNREACHABLE:
                hops[k] = hops[j] + 1
                frontier.append(k)
    return hops


def partition(
    a_norm: np.ndarray, hops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a_norm into (diagonal, centripetal, centrifugal) parts.

    Off-diagonal entry (j, k) is centripetal when node k sits at an
    equal-or-smaller hop distance than node j, centrifugal otherwise.
    UNREACHABLE distances compare greater than every finite distance.
    """
    m = a_norm.shape[0]
    key = np.where(hops == UNREACHABLE, np.inf, hops.astype(np.float64))
    root = np.zeros_like(a_norm)
    np.fill_diagonal(root, np.diag(a_norm))
    off = a_norm - root
    toward = key[np.newaxis, :] <= key[:, np.newaxis]  # d_k <= d_j
    centripetal = np.where(toward, off, 0.0)
    centrifugal = np.where(~toward, off, 0.0)
    return root, centripetal, centrifugal


def graph_from_pcc(pcc: np.ndarray, tau: float) -> RelationGraph:
    """Derive every other field of the relation graph from ``(pcc, tau)``."""
    adjacency = build_adjacency(pcc, tau)
    lam, a_norm = normalize(adjacency)
    gravity = gravity_center(adjacency)
    hops = hop_distances(adjacency, gravity)
    return RelationGraph(
        m=pcc.shape[0],
        tau=float(tau),
        pcc=pcc,
        adjacency=adjacency,
        lam=lam,
        a_norm=a_norm,
        parts=partition(a_norm, hops),
        gravity=gravity,
        hops=hops,
    )


def build_graph(labels: np.ndarray, tau: float) -> RelationGraph:
    return graph_from_pcc(compute_pcc(labels), tau)
