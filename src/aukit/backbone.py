"""Frame feature extractor with per-label spatial attention.

The backbone stacks two multi-scale region layers, each followed by
2x2 max-pooling, so an l x l input frame becomes an 8c x l/4 x l/4
feature map.  A region layer runs one full-map 3x3 convolution, then
three chained per-patch convolution stages over successively coarser
partition grids (8x8, 4x4, 2x2 patches), concatenates the three stage
outputs along channels, and fuses them back with a 1x1 convolution;
every convolution is followed by a tanh nonlinearity, which the
convolution applies itself (``tanh=True``), so a region layer records 6
tape nodes.  A per-patch stage is one ``conv2d_per_patch`` node on the
whole map: the op cuts the map into its grid and pastes the patch outputs
back itself.

Stage 1 takes a batch of frames only.  Every layer works on batch-last
maps (C, H, W, b), the layout the convolutions take: ``backbone_forward``
transposes the frames (b, 3, l, l) once on entry, which records no tape
node for untracked frames.  The branches return maps, features and
probabilities frames first, as ``attention_stage_forward`` always has.

On top of the shared feature map, one attention branch per label
produces a sigmoid attention map, multiplies it into every channel,
and reduces the result to a feature vector and an initial probability.
The m branches run as one pass: one ``conv2d`` with m output maps gives
all attention logits, and each branch's feature is the spatial mean of a
3x3 convolution of its gated map, which ``attention_pool`` computes as
the kernels applied to masked window sums, without the convolution's
output map.  ``per_node_head`` applies the m heads from their own entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from . import tensor as T
from .errors import ShapeError

#: Partition grids of the three per-patch stages, finest first.
GRIDS = (8, 4, 2)

#: Frame sizes must be a multiple of this: the second region layer runs the
#: finest grid at l/2, which also leaves its 2x2 pool an even size.
FRAME_MULTIPLE = 2 * max(GRIDS)


@dataclass
class ConvParams:
    kernels: T.Tensor  # (C_out, C_in, k, k); a per-patch bank (P, C_out, C_in, k, k)
    bias: T.Tensor     # (C_out,); a per-patch bank (P, C_out)


@dataclass
class RegionLayerParams:
    input_conv: ConvParams
    stage_convs: Tuple[ConvParams, ConvParams, ConvParams]  # per-patch banks
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
# Forward passes
# ---------------------------------------------------------------------------


def region_layer_forward(x: T.Tensor, params: RegionLayerParams) -> T.Tensor:
    """One region layer over a batch of maps (C_in, H, W, b) -> (C_out, H, W, b)."""
    current = T.conv2d(x, params.input_conv.kernels, params.input_conv.bias, padding=(1, 1),
                       tanh=True)
    stage_outputs = []
    for bank in params.stage_convs:
        current = T.conv2d_per_patch(current, bank.kernels, bank.bias, padding=(1, 1), tanh=True)
        stage_outputs.append(current)
    stacked = T.concat(stage_outputs, axis=0)
    return T.conv2d(stacked, params.fusion_conv.kernels, params.fusion_conv.bias, tanh=True)


def backbone_forward(frames: T.Tensor, params: BackboneParams) -> T.Tensor:
    """Frames (b, 3, l, l) -> batch-last feature maps (8c, l/4, l/4, b)."""
    shape = frames.shape
    if len(shape) != 4 or shape[1] != 3 or shape[2] != shape[3]:
        raise ShapeError(f"frames must be (b, 3, l, l), got {shape}")
    if shape[3] % FRAME_MULTIPLE:
        raise ShapeError(f"frame size {shape[3]} must be divisible by {FRAME_MULTIPLE}")
    h = region_layer_forward(T.transpose(frames, (1, 2, 3, 0)), params.layer1)
    h = region_layer_forward(T.maxpool2d(h), params.layer2)
    return T.maxpool2d(h)


def attention_branch_forward(
    feat: T.Tensor, branches: Sequence[AttentionBranchParams]
) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """All m attention branches in one pass over feature maps (8c, h, w, b).

    Returns attention maps M (b, m, h, w), pooled features f0 (b, m, 8c)
    and initial probabilities (b, m).  The attention kernels are joined by
    ``concat`` nodes; ``attention_pool`` and ``per_node_head`` take their
    parameters as lists.  Each branch entry gets its own gradient.
    """
    if len(feat.shape) != 4:
        raise ShapeError(f"expected a batch of feature maps, got shape {feat.shape}")
    att_kernels = T.concat([br.att_conv.kernels for br in branches], axis=0)
    att_bias = T.concat([br.att_conv.bias for br in branches], axis=0)
    maps = T.sigmoid(T.conv2d(feat, att_kernels, att_bias, padding=(1, 1)))  # (m, h, w, b)
    f0 = T.attention_pool(maps, feat, [br.feat_conv.kernels for br in branches],
                          [br.feat_conv.bias for br in branches], padding=(1, 1))
    logits = T.per_node_head(T.transpose(f0, (2, 0, 1)), [br.head_weight for br in branches],
                             [br.head_bias for br in branches])
    return T.transpose(maps, (3, 0, 1, 2)), f0, T.sigmoid(logits)


def attention_stage_forward(
    frames: T.Tensor,
    backbone: BackboneParams,
    branches: list[AttentionBranchParams],
) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """Run the backbone and every attention branch over a batch of frames.

    Returns stacked (M, f0, p0) with shapes (b, m, h, w), (b, m, 8c), (b, m).
    """
    return attention_branch_forward(backbone_forward(frames, backbone), branches)


# ---------------------------------------------------------------------------
# Checkpoint naming
# ---------------------------------------------------------------------------


def _conv_from(entries: Dict[str, T.Tensor], prefix: str) -> ConvParams:
    return ConvParams(entries[f"{prefix}.kernels"], entries[f"{prefix}.bias"])


def region_layer_from(entries: Dict[str, T.Tensor], prefix: str) -> RegionLayerParams:
    return RegionLayerParams(
        input_conv=_conv_from(entries, f"{prefix}.input"),
        stage_convs=tuple(
            _conv_from(entries, f"{prefix}.stage{s}") for s in (1, 2, 3)
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
