"""Model assembly: named parameter dictionaries, checkpoints, inference.

The canonical form of a model is an ordered ``dict[str, Tensor]`` mapping
stable entry names (``backbone.layer1.input.kernels``, ``branch.3.att.bias``,
``gst.2.phi2.kernels``, ...) to parameters.  Structured views over that dict
are rebuilt on demand, so functional parameter updates (training steps)
amount to replacing dict values; ``stage1_forward`` and ``stage2_forward``
are the only code that turns entries into a forward pass.  Serving and
attention training run stage 1 on at most ``FRAMES_PER_PASS`` frames at once.

A relation checkpoint embeds the frozen first-stage parameters, so a single
file is enough to run sequence-level inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import tensor as T
from .backbone import (
    GRIDS,
    attention_stage_forward,
    backbone_entries,
    backbone_from,
    branch_entries,
    branch_from,
    init_attention_branch,
    init_backbone,
)
from .errors import FormatError, ShapeError
from .graph import RelationGraph, graph_from_pcc
from .rng import Xoshiro256pp, derive_seed
from .serialize import load_checkpoint, save_checkpoint
from .stgcn import (
    PARTITIONS,
    head_entries,
    head_from,
    init_head,
    init_stgcn,
    stgcn_entries,
    stgcn_forward,
    stgcn_from,
)

Entries = Dict[str, T.Tensor]

# Tags keep the two stages on independent random streams for one seed.
_ATTENTION_STREAM = 11
_RELATION_STREAM = 13


def init_attention_entries(c: int, m: int, seed: int) -> Entries:
    """Fresh backbone plus ``m`` attention branches."""
    rng = Xoshiro256pp(derive_seed(seed, _ATTENTION_STREAM))
    entries: Entries = dict(backbone_entries(init_backbone(rng.fork(0), c)))
    for j in range(1, m + 1):
        entries.update(branch_entries(j, init_attention_branch(rng.fork(j), c)))
    return entries


def stage1_entries(entries: Entries) -> Entries:
    """The backbone and branch entries of ``entries``, in their order."""
    return {name: param for name, param in entries.items()
            if name.startswith(("backbone.", "branch."))}


def init_relation_entries(
    stage1: Entries, t_k: int, depth: int, seed: int
) -> Entries:
    """Fresh graph-stack and head parameters after the stage-1 entries of ``stage1``."""
    dims = model_dims(stage1)
    rng = Xoshiro256pp(derive_seed(seed, _RELATION_STREAM))
    entries = stage1_entries(stage1)
    entries.update(stgcn_entries(init_stgcn(rng.fork(0), dims.c, dims.m, t_k, depth)))
    entries.update(head_entries(init_head(rng.fork(1), dims.c, dims.m)))
    return entries


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------


def save_model(path, entries: Entries) -> None:
    save_checkpoint(path, {name: param.data for name, param in entries.items()})


def load_model(path) -> Entries:
    """Read a checkpoint and check it against the architecture it implies.

    Every entry that the sizes from ``model_dims`` call for must be present
    with its shape, and no other entry may be, apart from ``graph.*``
    constants (checked by ``extract_graph``); anything else is a FormatError
    naming the entry.
    """
    arrays = load_checkpoint(path)
    entries = {name: T.Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    expected = entry_shapes(model_dims(entries))
    for name in entries:
        if name not in expected and not name.startswith(GRAPH_PREFIX):
            raise FormatError(f"checkpoint holds unknown entry {name!r}")
    for name, shape in expected.items():
        if name not in entries:
            raise FormatError(f"checkpoint lacks entry {name!r}")
        if entries[name].shape != shape:
            raise FormatError(
                f"checkpoint entry {name!r} has shape {entries[name].shape}, expected {shape}"
            )
    return entries


@dataclass(frozen=True)
class ModelDims:
    c: int
    m: int
    depth: int          # 0 when the checkpoint holds only stage-1 entries
    t_k: Optional[int]  # None when depth == 0


def model_dims(entries: Entries) -> ModelDims:
    """Recover architecture sizes from entry names and shapes."""
    key = "backbone.layer1.input.kernels"
    if key not in entries:
        raise FormatError(f"checkpoint lacks entry {key!r}")
    if len(entries[key].shape) != 4:
        raise FormatError(f"checkpoint entry {key!r} has shape {entries[key].shape}")
    out_ch = entries[key].shape[0]
    if out_ch % 4:
        raise FormatError(f"first-layer channel count {out_ch} is not 4*c")
    c = out_ch // 4

    m = 0
    while f"branch.{m + 1}.att.kernels" in entries:
        m += 1
    if m == 0:
        raise FormatError("checkpoint holds no attention branches")

    depth = 0
    while f"gst.{depth + 1}.phi2.kernels" in entries:
        depth += 1
    t_k = None
    if depth:
        shape = entries["gst.1.phi2.kernels"].shape
        if len(shape) != 4:
            raise FormatError(f"checkpoint entry 'gst.1.phi2.kernels' has shape {shape}")
        t_k = shape[2]
    return ModelDims(c=c, m=m, depth=depth, t_k=t_k)


def entry_shapes(dims: ModelDims) -> Dict[str, tuple]:
    """Name -> shape of every parameter entry of a model of these sizes.

    Derived from the sizes alone, in ``init_attention_entries`` and
    ``init_relation_entries`` order; graph constants are not included.
    """
    ch = 8 * dims.c
    shapes: Dict[str, tuple] = {}
    for layer, in_ch, out_ch in ((1, 3, 4 * dims.c), (2, 4 * dims.c, ch)):
        prefix = f"backbone.layer{layer}"
        shapes[f"{prefix}.input.kernels"] = (out_ch, in_ch, 3, 3)
        shapes[f"{prefix}.input.bias"] = (out_ch,)
        for s, grid in enumerate(GRIDS, start=1):
            shapes[f"{prefix}.stage{s}.kernels"] = (grid * grid, out_ch, out_ch, 3, 3)
            shapes[f"{prefix}.stage{s}.bias"] = (grid * grid, out_ch)
        shapes[f"{prefix}.fusion.kernels"] = (out_ch, 3 * out_ch, 1, 1)
        shapes[f"{prefix}.fusion.bias"] = (out_ch,)
    for j in range(1, dims.m + 1):
        shapes[f"branch.{j}.att.kernels"] = (1, ch, 3, 3)
        shapes[f"branch.{j}.att.bias"] = (1,)
        shapes[f"branch.{j}.feat.kernels"] = (ch, ch, 3, 3)
        shapes[f"branch.{j}.feat.bias"] = (ch,)
        shapes[f"branch.{j}.head.weight"] = (1, ch)
        shapes[f"branch.{j}.head.bias"] = (1,)
    for i in range(1, dims.depth + 1):
        for q in range(1, PARTITIONS + 1):
            shapes[f"gst.{i}.edge.{q}"] = (dims.m, dims.m)
        for q in range(1, PARTITIONS + 1):
            shapes[f"gst.{i}.phi1.{q}.kernels"] = (ch, ch, 1, 1)
            shapes[f"gst.{i}.phi1.{q}.bias"] = (ch,)
        shapes[f"gst.{i}.phi2.kernels"] = (ch, ch, dims.t_k, 1)
        shapes[f"gst.{i}.phi2.bias"] = (ch,)
    for j in range(1, dims.m + 1 if dims.depth else 1):
        shapes[f"head.{j}.weight"] = (ch,)
        shapes[f"head.{j}.bias"] = (1,)
    return shapes


# ---------------------------------------------------------------------------
# Forward passes from entries; inference (plain arrays in and out, unrecorded)
# ---------------------------------------------------------------------------


GRAPH_PREFIX = "graph."


def _graph_arrays(graph: RelationGraph) -> Dict[str, np.ndarray]:
    return {
        "graph.tau": np.asarray(float(graph.tau)),
        "graph.pcc": graph.pcc,
        "graph.adjacency": graph.adjacency,
        "graph.lam": graph.lam,
        "graph.a_norm": graph.a_norm,
        "graph.part.1": graph.parts[0],
        "graph.part.2": graph.parts[1],
        "graph.part.3": graph.parts[2],
        "graph.gravity": np.asarray(float(graph.gravity)),
        "graph.hops": np.asarray(graph.hops, dtype=np.float64),
    }


def embed_graph(entries: Entries, graph: RelationGraph) -> Entries:
    """Store the relation graph inside the entry dict (self-contained file).

    Graph entries are constants, never optimized; they ride along so that
    sequence-level inference needs only the checkpoint.
    """
    out = dict(entries)
    for name, arr in _graph_arrays(graph).items():
        out[name] = T.Tensor(arr)
    return out


def extract_graph(entries: Entries) -> Optional[RelationGraph]:
    """Rebuild the embedded relation graph from its ``pcc`` and ``tau``, or None if absent.

    Every other stored graph entry must equal the rebuilt one; the first
    that differs is named in the FormatError.
    """
    if "graph.pcc" not in entries:
        return None
    try:
        graph = graph_from_pcc(entries["graph.pcc"].data, float(entries["graph.tau"].data))
    except KeyError as exc:
        raise FormatError(f"embedded graph is incomplete: missing {exc}") from exc
    except (TypeError, ValueError, IndexError, ShapeError) as exc:
        raise FormatError(f"embedded graph has a malformed pcc or tau: {exc}") from exc
    for name, expected in _graph_arrays(graph).items():
        if name not in entries:
            raise FormatError(f"embedded graph is incomplete: missing {name!r}")
        if not np.array_equal(entries[name].data, expected):
            raise FormatError(
                f"embedded graph entry {name!r} differs from the graph rebuilt from pcc and tau"
            )
    return graph


def stage1_forward(entries: Entries, frames: T.Tensor) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """Backbone and branches: frames (b, 3, h, w) -> maps, features (b, m, 8c), probs (b, m)."""
    m = model_dims(entries).m
    branches = [branch_from(entries, j) for j in range(1, m + 1)]
    return attention_stage_forward(frames, backbone_from(entries), branches)


def stage2_forward(entries: Entries, graph: RelationGraph, f0: T.Tensor) -> T.Tensor:
    """Graph stack, at the depth ``entries`` hold, and heads: (.., 8c, t, m) -> (.., t, m)."""
    dims = model_dims(entries)
    return stgcn_forward(f0, graph, stgcn_from(entries, dims.depth),
                         head_from(entries, dims.m), expected_layers=dims.depth)


#: Most frames one stage-1 pass runs, in serving and attention training, so
#: memory does not grow with a video or batch; a constant, not a setting.
FRAMES_PER_PASS = 8


def attention_predict(
    entries: Entries, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame attention pass over a sequence, ``FRAMES_PER_PASS`` frames at a time.

    frames (t, 3, h, w) -> maps (t, m, h/4, w/4), features (t, m, 8c),
    probabilities (t, m).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4:
        raise ShapeError(f"expected a batch of frames, got shape {frames.shape}")
    parts = [stage1_forward(entries, T.Tensor(frames[i:i + FRAMES_PER_PASS]))
             for i in range(0, max(len(frames), 1), FRAMES_PER_PASS)]
    return tuple(np.concatenate([part[k].data for part in parts]) for k in range(3))


def sequence_features(entries: Entries, frames: np.ndarray) -> np.ndarray:
    """Stage-2 input features for one sequence: (8c, t, m)."""
    _, feats, _ = attention_predict(entries, frames)
    return np.ascontiguousarray(feats.transpose(2, 0, 1))


def relation_predict(
    entries: Entries, graph: RelationGraph, frames: np.ndarray
) -> np.ndarray:
    """Sequence-level probabilities (t, m) from a relation checkpoint; (0, m) for no frames."""
    dims = model_dims(entries)
    if dims.depth == 0:
        raise FormatError("checkpoint holds no graph-stack entries")
    if graph.m != dims.m:
        raise ShapeError(f"graph has {graph.m} nodes but model has {dims.m} branches")
    f0 = sequence_features(entries, frames)
    if f0.shape[1] == 0:  # no edge frame for the temporal padding to repeat
        return np.zeros((0, dims.m))
    return stage2_forward(entries, graph, T.Tensor(f0)).data
