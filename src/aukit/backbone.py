"""Frame feature extractor with per-label spatial attention.

The backbone stacks two multi-scale region layers, each followed by
2x2 max-pooling, so an l x l input frame becomes an 8c x l/4 x l/4
feature map.  A region layer runs one full-map 3x3 convolution, then
three chained per-patch convolution stages over successively coarser
partition grids (8x8, 4x4, 2x2 patches), concatenates the three stage
outputs along channels, and fuses them back with a 1x1 convolution;
every convolution is followed by a tanh nonlinearity.  A per-patch stage
is one ``conv2d_per_patch`` node on the whole map: the op cuts the map into
its grid and pastes the patch outputs back itself.

Every layer works on a batch (b, C, H, W).  ``backbone_forward`` alone
also takes a single frame (3, l, l), adding and removing the batch axis
with one reshape each.

On top of the shared feature map, one attention branch per label
produces a sigmoid attention map, multiplies it into every channel,
and reduces the result to a feature vector and an initial probability.
The m branches run as one pass: one ``conv2d`` with m output maps gives
all attention logits, and each branch's feature is the spatial mean of a
3x3 convolution of its gated map, which ``attention_pool`` computes as
the kernels applied to masked window sums, without the convolution's
output map.  Heads are applied together with ``per_node_head``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .rng import Xoshiro256pp

#: Partition grids of the three per-patch stages, finest first.
GRIDS = (8, 4, 2)

#: Frame sizes must be a multiple of this: the second region layer runs the
#: finest grid at l/2, which also leaves its 2x2 pool an even size.
FRAME_MULTIPLE = 2 * max(GRIDS)


@dataclass
class ConvParams:
    kernels: T.Tensor  # (C_out, C_in, k, k)
    bias: T.Tensor     # (C_out,)


@dataclass
class PatchConvParams:
    kernels: T.Tensor  # (P, C_out, C_in, k, k)
    bias: T.Tensor     # (P, C_out)


@dataclass
class RegionLayerParams:
    input_conv: ConvParams
    stage_convs: Tuple[PatchConvParams, PatchConvParams, PatchConvParams]
    fusion_conv: ConvParams


@dataclass
class BackboneParams:
    layer1: RegionLayerParams  # 3 -> 4c channels at l x l
    layer2: RegionLayerParams  # 4c -> 8c channels at l/2 x l/2


@dataclass
class AttentionBranchParams:
    att_conv: ConvParams   # 8c -> 1
    feat_conv: ConvParams  # 8c -> 8c
    head_weight: T.Tensor  # (1, 8c)
    head_bias: T.Tensor    # (1,)


# ---------------------------------------------------------------------------
# Initialization: uniform fan-in scaling for weights, zero biases.
# ---------------------------------------------------------------------------


def _uniform(rng: Xoshiro256pp, shape: tuple[int, ...], fan_in: int) -> T.Tensor:
    # Uniform(-sqrt(3/fan_in), +sqrt(3/fan_in)) has variance 1/fan_in, so a
    # conv over fan_in inputs preserves activation variance layer to layer.
    scale = np.sqrt(3.0 / fan_in)
    return T.Tensor(rng.uniform_array(shape, -scale, scale), requires_grad=True)


def init_conv(rng: Xoshiro256pp, in_ch: int, out_ch: int, k: int) -> ConvParams:
    return ConvParams(
        kernels=_uniform(rng, (out_ch, in_ch, k, k), in_ch * k * k),
        bias=T.Tensor(np.zeros(out_ch), requires_grad=True),
    )


def init_patch_conv(
    rng: Xoshiro256pp, patches: int, in_ch: int, out_ch: int, k: int
) -> PatchConvParams:
    return PatchConvParams(
        kernels=_uniform(rng, (patches, out_ch, in_ch, k, k), in_ch * k * k),
        bias=T.Tensor(np.zeros((patches, out_ch)), requires_grad=True),
    )


def init_region_layer(rng: Xoshiro256pp, in_ch: int, out_ch: int) -> RegionLayerParams:
    stages = tuple(
        init_patch_conv(rng, grid * grid, out_ch, out_ch, 3) for grid in GRIDS
    )
    return RegionLayerParams(
        input_conv=init_conv(rng, in_ch, out_ch, 3),
        stage_convs=stages,  # type: ignore[arg-type]
        fusion_conv=init_conv(rng, 3 * out_ch, out_ch, 1),
    )


def init_backbone(rng: Xoshiro256pp, c: int) -> BackboneParams:
    return BackboneParams(
        layer1=init_region_layer(rng.fork(1), 3, 4 * c),
        layer2=init_region_layer(rng.fork(2), 4 * c, 8 * c),
    )


def init_attention_branch(rng: Xoshiro256pp, c: int) -> AttentionBranchParams:
    ch = 8 * c
    return AttentionBranchParams(
        att_conv=init_conv(rng, ch, 1, 3),
        feat_conv=init_conv(rng, ch, ch, 3),
        head_weight=_uniform(rng, (1, ch), ch),
        head_bias=T.Tensor(np.zeros(1), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def region_layer_forward(x: T.Tensor, params: RegionLayerParams) -> T.Tensor:
    """One region layer over a batch of maps (b, C_in, H, W) -> (b, C_out, H, W)."""
    current = T.tanh(
        T.conv2d(x, params.input_conv.kernels, params.input_conv.bias, padding=(1, 1))
    )
    stage_outputs = []
    for bank in params.stage_convs:
        current = T.tanh(T.conv2d_per_patch(current, bank.kernels, bank.bias, padding=(1, 1)))
        stage_outputs.append(current)
    stacked = T.concat(stage_outputs, axis=1)
    return T.tanh(
        T.conv2d(stacked, params.fusion_conv.kernels, params.fusion_conv.bias)
    )


def backbone_forward(frames: T.Tensor, params: BackboneParams) -> T.Tensor:
    """Frames (b, 3, l, l) -> feature maps (b, 8c, l/4, l/4).

    One frame (3, l, l) gives one map (8c, l/4, l/4): this is the one place
    in stage 1 that accepts unbatched input.
    """
    shape = frames.shape
    if len(shape) not in (3, 4) or shape[-3] != 3 or shape[-2] != shape[-1]:
        raise ShapeError(f"frames must be (3, l, l) or (b, 3, l, l), got {shape}")
    l = shape[-1]
    if l % FRAME_MULTIPLE:
        raise ShapeError(f"frame size {l} must be divisible by {FRAME_MULTIPLE}")
    unbatched = len(shape) == 3
    h = T.reshape(frames, (1,) + shape) if unbatched else frames
    h = region_layer_forward(h, params.layer1)
    h = T.maxpool2d(h)
    h = region_layer_forward(h, params.layer2)
    h = T.maxpool2d(h)
    return T.reshape(h, h.shape[1:]) if unbatched else h


def attention_branch_forward(
    feat: T.Tensor, branches: Sequence[AttentionBranchParams]
) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """All m attention branches in one pass over feature maps (b, 8c, h, w).

    Returns attention maps M (b, m, h, w), pooled features f0 (b, m, 8c)
    and initial probabilities (b, m).  The branches' parameters are joined
    by ``concat`` nodes, so each branch entry still gets its own gradient.
    """
    if len(feat.shape) != 4:
        raise ShapeError(f"expected a batch of feature maps, got shape {feat.shape}")
    m, ch = len(branches), feat.shape[1]
    att_kernels = T.concat([br.att_conv.kernels for br in branches], axis=0)
    att_bias = T.concat([br.att_conv.bias for br in branches], axis=0)
    maps = T.sigmoid(T.conv2d(feat, att_kernels, att_bias, padding=(1, 1)))
    feat_kernels = T.concat([br.feat_conv.kernels for br in branches], axis=0)
    feat_bias = T.concat([br.feat_conv.bias for br in branches], axis=0)
    f0 = T.attention_pool(
        maps,
        feat,
        T.reshape(feat_kernels, (m, ch) + feat_kernels.shape[1:]),
        T.reshape(feat_bias, (m, ch)),
        padding=(1, 1),
    )
    head_weight = T.concat([br.head_weight for br in branches], axis=0)  # (m, 8c)
    head_bias = T.concat([br.head_bias for br in branches], axis=0)      # (m,)
    logits = T.per_node_head(T.transpose(f0, (2, 0, 1)), head_weight, head_bias)
    return maps, f0, T.sigmoid(logits)


def attention_stage_forward(
    frames: T.Tensor,
    backbone: BackboneParams,
    branches: list[AttentionBranchParams],
) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """Run the backbone and every attention branch over a batch of frames.

    Returns stacked (M, f0, p0) with shapes (b, m, h, w), (b, m, 8c), (b, m).
    """
    if len(frames.shape) != 4:
        raise ShapeError(f"expected a batch of frames, got shape {frames.shape}")
    return attention_branch_forward(backbone_forward(frames, backbone), branches)


# ---------------------------------------------------------------------------
# Checkpoint naming
# ---------------------------------------------------------------------------


def _conv_entries(prefix: str, conv: ConvParams | PatchConvParams):
    yield f"{prefix}.kernels", conv.kernels
    yield f"{prefix}.bias", conv.bias


def region_layer_entries(prefix: str, layer: RegionLayerParams) -> Iterator[tuple[str, T.Tensor]]:
    yield from _conv_entries(f"{prefix}.input", layer.input_conv)
    for s, bank in enumerate(layer.stage_convs, start=1):
        yield from _conv_entries(f"{prefix}.stage{s}", bank)
    yield from _conv_entries(f"{prefix}.fusion", layer.fusion_conv)


def backbone_entries(params: BackboneParams) -> Iterator[tuple[str, T.Tensor]]:
    yield from region_layer_entries("backbone.layer1", params.layer1)
    yield from region_layer_entries("backbone.layer2", params.layer2)


def branch_entries(j: int, branch: AttentionBranchParams) -> Iterator[tuple[str, T.Tensor]]:
    """Checkpoint names for branch ``j`` (1-based, matching file formats)."""
    yield from _conv_entries(f"branch.{j}.att", branch.att_conv)
    yield from _conv_entries(f"branch.{j}.feat", branch.feat_conv)
    yield f"branch.{j}.head.weight", branch.head_weight
    yield f"branch.{j}.head.bias", branch.head_bias


def _conv_from(entries: Dict[str, T.Tensor], prefix: str) -> ConvParams:
    return ConvParams(entries[f"{prefix}.kernels"], entries[f"{prefix}.bias"])


def _patch_conv_from(entries: Dict[str, T.Tensor], prefix: str) -> PatchConvParams:
    return PatchConvParams(entries[f"{prefix}.kernels"], entries[f"{prefix}.bias"])


def region_layer_from(entries: Dict[str, T.Tensor], prefix: str) -> RegionLayerParams:
    return RegionLayerParams(
        input_conv=_conv_from(entries, f"{prefix}.input"),
        stage_convs=tuple(
            _patch_conv_from(entries, f"{prefix}.stage{s}") for s in (1, 2, 3)
        ),  # type: ignore[arg-type]
        fusion_conv=_conv_from(entries, f"{prefix}.fusion"),
    )


def backbone_from(entries: Dict[str, T.Tensor]) -> BackboneParams:
    return BackboneParams(
        layer1=region_layer_from(entries, "backbone.layer1"),
        layer2=region_layer_from(entries, "backbone.layer2"),
    )


def branch_from(entries: Dict[str, T.Tensor], j: int) -> AttentionBranchParams:
    return AttentionBranchParams(
        att_conv=_conv_from(entries, f"branch.{j}.att"),
        feat_conv=_conv_from(entries, f"branch.{j}.feat"),
        head_weight=entries[f"branch.{j}.head.weight"],
        head_bias=entries[f"branch.{j}.head.bias"],
    )
