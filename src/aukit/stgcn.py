"""Stacked graph-convolutional layers over time-series node features.

Features enter ``stgcn_forward`` as channels x time x nodes (8c, t, m), or
batch first (b, 8c, t, m).  Between graph layers a batch is kept as
(8c, t, b, m): the temporal kernel is t_k x 1, so ``conv2d`` reads b as
width and m as its batch axis with no reshape, and ``partition_mix`` runs
its products as single GEMMs.  The stack transposes a batch once on entry
(no tape node for untracked features) and once before the heads.
Each layer computes

    F_out = phi2( sum_q (tanh(W_q) * A_q) . phi1_q(F_in) ) + F_in

where A_q are the three partitions of the normalized relation graph,
W_q are learnable edge re-weightings, phi1_q are 1x1 convolutions and
phi2 is a temporal convolution (kernel t_k x 1, odd t_k).  Time padding
replicates the edge frames, so a constant-repeated input stays constant
and one set of weights serves any sequence length.  A layer records four
tape nodes: ``partition_mix`` (all three partitions), ``pad_edge``, the
temporal ``conv2d`` and the residual ``add``.

phi2 starts at zero, making every freshly initialized layer an exact
identity; W_q starts at all-ones (effective edge weight tanh(1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

import numpy as np

from . import tensor as T
from .backbone import _uniform
from .errors import ConfigError, ShapeError
from .graph import RelationGraph
from .rng import Xoshiro256pp

#: Number of stacked layers used by the reference configuration.
DEFAULT_DEPTH = 8

#: Partitions per layer (diagonal / centripetal / centrifugal).
PARTITIONS = 3


@dataclass
class StgcnLayerParams:
    edge_weights: List[T.Tensor]  # 3 x (m, m)
    phi1_kernels: List[T.Tensor]  # 3 x (8c, 8c, 1, 1)
    phi1_bias: List[T.Tensor]     # 3 x (8c,)
    phi2_kernels: T.Tensor        # (8c, 8c, t_k, 1)
    phi2_bias: T.Tensor           # (8c,)


@dataclass
class StgcnHead:
    weights: List[T.Tensor]  # m x (8c,)
    biases: List[T.Tensor]   # m x (1,)


def init_stgcn_layer(rng: Xoshiro256pp, c: int, m: int, t_k: int) -> StgcnLayerParams:
    if t_k % 2 == 0 or t_k < 1:
        raise ConfigError(f"temporal kernel size must be odd and positive, got {t_k}")
    ch = 8 * c
    return StgcnLayerParams(
        edge_weights=[T.Tensor(np.ones((m, m)), requires_grad=True) for _ in range(PARTITIONS)],
        phi1_kernels=[_uniform(rng, (ch, ch, 1, 1), ch) for _ in range(PARTITIONS)],
        phi1_bias=[T.Tensor(np.zeros(ch), requires_grad=True) for _ in range(PARTITIONS)],
        phi2_kernels=T.Tensor(np.zeros((ch, ch, t_k, 1)), requires_grad=True),
        phi2_bias=T.Tensor(np.zeros(ch), requires_grad=True),
    )


def init_stgcn(
    rng: Xoshiro256pp, c: int, m: int, t_k: int, depth: int = DEFAULT_DEPTH
) -> List[StgcnLayerParams]:
    return [init_stgcn_layer(rng.fork(i), c, m, t_k) for i in range(depth)]


def init_head(rng: Xoshiro256pp, c: int, m: int) -> StgcnHead:
    ch = 8 * c
    return StgcnHead(
        weights=[_uniform(rng.fork(j), (ch,), ch) for j in range(m)],
        biases=[T.Tensor(np.zeros(1), requires_grad=True) for _ in range(m)],
    )


def gst_layer_forward(
    f_in: T.Tensor, graph: RelationGraph, params: StgcnLayerParams
) -> T.Tensor:
    """One graph layer over batch-last (8c, t, b, m) features.

    One unbatched sequence (8c, t, m) is also accepted: this is the one
    place in stage 2 that adds and removes the batch axis.
    """
    shape = f_in.shape
    if len(shape) not in (3, 4):
        raise ShapeError(f"features must be (8c, t, m) or (8c, t, b, m), got {shape}")
    t_k = params.phi2_kernels.shape[2]
    if t_k % 2 == 0:
        raise ConfigError(f"temporal kernel size must be odd, got {t_k}")
    if shape[-1] != graph.m:
        raise ShapeError(f"feature node axis {shape[-1]} != graph nodes {graph.m}")
    unbatched = len(shape) == 3
    x = T.reshape(f_in, shape[:2] + (1, shape[2])) if unbatched else f_in

    spatial = T.partition_mix(
        x, graph.parts, params.edge_weights, params.phi1_kernels, params.phi1_bias
    )
    reach = (t_k - 1) // 2
    padded = T.pad_edge(spatial, 1, reach, reach) if reach else spatial
    out = T.add(T.conv2d(padded, params.phi2_kernels, params.phi2_bias), x)
    return T.reshape(out, shape) if unbatched else out


def stgcn_forward(
    f0: T.Tensor,
    graph: RelationGraph,
    layers: Sequence[StgcnLayerParams],
    head: StgcnHead,
    expected_layers: int = DEFAULT_DEPTH,
) -> T.Tensor:
    """Full stack plus per-node heads: (.., 8c, t, m) -> probabilities (.., t, m)."""
    if len(layers) != expected_layers:
        raise ConfigError(f"expected {expected_layers} layers, got {len(layers)}")
    if len(head.weights) != f0.shape[-1]:
        raise ShapeError(
            f"head count {len(head.weights)} != node axis {f0.shape[-1]}"
        )
    batched = len(f0.shape) == 4
    features = T.transpose(f0, (1, 2, 0, 3)) if batched else f0  # (8c, t, b, m)
    for layer in layers:
        features = gst_layer_forward(features, graph, layer)
    features = T.transpose(features, (2, 0, 1, 3)) if batched else features
    return T.sigmoid(T.per_node_head(features, head.weights, head.biases))


# ---------------------------------------------------------------------------
# Checkpoint naming
# ---------------------------------------------------------------------------


def stgcn_entries(layers: Sequence[StgcnLayerParams]) -> Iterator[tuple[str, T.Tensor]]:
    for index, layer in enumerate(layers, start=1):
        for q in range(PARTITIONS):
            yield f"gst.{index}.edge.{q + 1}", layer.edge_weights[q]
        for q in range(PARTITIONS):
            yield f"gst.{index}.phi1.{q + 1}.kernels", layer.phi1_kernels[q]
            yield f"gst.{index}.phi1.{q + 1}.bias", layer.phi1_bias[q]
        yield f"gst.{index}.phi2.kernels", layer.phi2_kernels
        yield f"gst.{index}.phi2.bias", layer.phi2_bias


def head_entries(head: StgcnHead) -> Iterator[tuple[str, T.Tensor]]:
    for j, (weight, bias) in enumerate(zip(head.weights, head.biases), start=1):
        yield f"head.{j}.weight", weight
        yield f"head.{j}.bias", bias


def stgcn_from(entries: Dict[str, T.Tensor], depth: int = DEFAULT_DEPTH) -> List[StgcnLayerParams]:
    layers = []
    for index in range(1, depth + 1):
        layers.append(
            StgcnLayerParams(
                edge_weights=[entries[f"gst.{index}.edge.{q + 1}"] for q in range(PARTITIONS)],
                phi1_kernels=[
                    entries[f"gst.{index}.phi1.{q + 1}.kernels"] for q in range(PARTITIONS)
                ],
                phi1_bias=[
                    entries[f"gst.{index}.phi1.{q + 1}.bias"] for q in range(PARTITIONS)
                ],
                phi2_kernels=entries[f"gst.{index}.phi2.kernels"],
                phi2_bias=entries[f"gst.{index}.phi2.bias"],
            )
        )
    return layers


def head_from(entries: Dict[str, T.Tensor], m: int) -> StgcnHead:
    return StgcnHead(
        weights=[entries[f"head.{j}.weight"] for j in range(1, m + 1)],
        biases=[entries[f"head.{j}.bias"] for j in range(1, m + 1)],
    )
