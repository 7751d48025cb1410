"""Model assembly: named parameter dictionaries, checkpoints, inference.

The canonical form of a model is an ordered ``dict[str, Tensor]`` mapping
stable entry names (``backbone.layer1.input.kernels``, ``branch.3.att.bias``,
``gst.2.phi2.kernels``, ...) to parameters.  Structured views over that dict
are rebuilt on demand, so functional parameter updates (training steps)
amount to replacing dict values; ``stage1_forward`` and ``stage2_forward``
are the only code that turns entries into a forward pass.  Serving and
attention training have at most ``FRAMES_PER_PASS`` frames of stage 1 in
flight: an attention training part is one pass of 8 frames, and serving
runs passes of 4 frames through ``tensor.in_halves``, the first half on the
calling thread and the second on the worker, with bytes that do not depend
on the threads.  A pass that runs alone splits its large convolutions
between the same two threads instead.

A relation checkpoint embeds the frozen first-stage parameters, so a single
file is enough to run sequence-level inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .backbone import GRIDS, attention_stage_forward, backbone_from, branch_from
from .errors import ConfigError, FormatError, ShapeError
from .graph import RelationGraph, graph_from_pcc
from .rng import Xoshiro256pp, derive_seed
from .serialize import load_checkpoint, save_checkpoint
from .stgcn import PARTITIONS, head_from, stgcn_forward, stgcn_from

Entries = Dict[str, T.Tensor]

# Tags keep the two stages on independent random streams for one seed.
_ATTENTION_STREAM = 11
_RELATION_STREAM = 13


def _fresh(shapes: Dict[str, tuple], draws: Sequence[Tuple[Xoshiro256pp, Sequence[str]]]) -> Entries:
    """Fresh parameters for every entry of ``shapes``, in its order.

    ``draws`` pairs each stream with the names it draws, in draw order, from
    Uniform(-sqrt(3/fan_in), +sqrt(3/fan_in)): variance 1/fan_in, so a layer
    over fan_in inputs preserves activation variance.  fan_in is the product
    of a weight's last three sizes (in_ch x k x k of a kernel or kernel bank,
    the width of a head weight).  Edge weights start at one, every other
    entry (biases, phi2) at zero.
    """
    drawn = {}
    for rng, names in draws:
        for name in names:
            shape = shapes[name]
            scale = np.sqrt(3.0 / math.prod(shape[-3:]))
            drawn[name] = T.Tensor(rng.uniform_array(shape, -scale, scale), requires_grad=True)
    return {
        name: drawn[name] if name in drawn else T.Tensor(
            (np.ones if ".edge." in name else np.zeros)(shape), requires_grad=True)
        for name, shape in shapes.items()
    }


def init_attention_entries(c: int, m: int, seed: int) -> Entries:
    """Fresh backbone plus ``m`` attention branches.

    Each region layer draws its three stage banks before its input and
    fusion kernels; branch j draws its attention, feature and head weights.
    A fork advances its parent, so the backbone's stream is forked first.
    """
    rng = Xoshiro256pp(derive_seed(seed, _ATTENTION_STREAM))
    backbone = rng.fork(0)
    draws = [(backbone.fork(i), [f"backbone.layer{i}.{conv}.kernels" for conv in
                                 ("stage1", "stage2", "stage3", "input", "fusion")])
             for i in (1, 2)]
    draws += [(rng.fork(j), [f"branch.{j}.att.kernels", f"branch.{j}.feat.kernels",
                             f"branch.{j}.head.weight"]) for j in range(1, m + 1)]
    return _fresh(entry_shapes(ModelDims(c=c, m=m, depth=0, t_k=None)), draws)


def stage1_entries(entries: Entries) -> Entries:
    """The backbone and branch entries of ``entries``, in their order."""
    return {name: param for name, param in entries.items()
            if name.startswith(("backbone.", "branch."))}


def init_relation_entries(
    stage1: Entries, t_k: int, depth: int, seed: int
) -> Entries:
    """Fresh graph-stack and head parameters after the stage-1 entries of ``stage1``.

    Layer i draws its three phi1 kernels, head j its weight, each from a
    stream of its own.
    """
    if t_k % 2 == 0 or t_k < 1:
        raise ConfigError(f"temporal kernel size must be odd and positive, got {t_k}")
    if depth < 1:
        raise ConfigError(f"graph-stack depth must be positive, got {depth}")
    dims = model_dims(stage1)
    rng = Xoshiro256pp(derive_seed(seed, _RELATION_STREAM))
    layers, heads = rng.fork(0), rng.fork(1)
    draws = [(layers.fork(i - 1), [f"gst.{i}.phi1.{q}.kernels" for q in range(1, PARTITIONS + 1)])
             for i in range(1, depth + 1)]
    draws += [(heads.fork(j - 1), [f"head.{j}.weight"]) for j in range(1, dims.m + 1)]
    entries = stage1_entries(stage1)
    shapes = entry_shapes(ModelDims(c=dims.c, m=dims.m, depth=depth, t_k=t_k))
    entries.update(_fresh({name: shape for name, shape in shapes.items()
                           if name not in entries}, draws))
    return entries


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------


def save_model(path, entries: Entries) -> None:
    save_checkpoint(path, {name: param.data for name, param in entries.items()})


def load_model(path) -> Entries:
    """Read a checkpoint and check it against the architecture it implies.

    Every entry that the sizes from ``model_dims`` call for must be present
    with its shape, and no other entry may be, apart from the
    ``GRAPH_ENTRIES`` (checked by ``extract_graph``); anything else is a
    FormatError naming the entry.
    """
    arrays = load_checkpoint(path)
    entries = {name: T.Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    expected = entry_shapes(model_dims(entries))
    for name in entries:
        if name not in expected and name not in GRAPH_ENTRIES:
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

    The one table of entry names and shapes: ``init_attention_entries`` and
    ``init_relation_entries`` fill it and ``load_model`` checks against it.
    Derived from the sizes alone; graph constants are not included.
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


#: The relation graph's source, the only graph entries a checkpoint holds;
#: every other field is rebuilt from them (``graph_from_pcc``).
GRAPH_ENTRIES = ("graph.tau", "graph.pcc")


def embed_graph(entries: Entries, graph: RelationGraph) -> Entries:
    """Store the relation graph's ``pcc`` and ``tau`` inside the entry dict.

    Graph entries are constants, never optimized; they ride along so that
    sequence-level inference needs only the checkpoint.
    """
    return {**entries, "graph.tau": T.Tensor(np.asarray(float(graph.tau))),
            "graph.pcc": T.Tensor(graph.pcc)}


def extract_graph(entries: Entries) -> Optional[RelationGraph]:
    """Rebuild the embedded relation graph from its ``pcc`` and ``tau``, or None if absent."""
    if not any(name in entries for name in GRAPH_ENTRIES):
        return None
    try:
        return graph_from_pcc(entries["graph.pcc"].data, float(entries["graph.tau"].data))
    except KeyError as exc:
        raise FormatError(f"embedded graph is incomplete: missing {exc}") from exc
    except (TypeError, ValueError, IndexError, ShapeError) as exc:
        raise FormatError(f"embedded graph has a malformed pcc or tau: {exc}") from exc


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


#: Most frames of stage 1 in flight at once, in serving and attention
#: training, so memory does not grow with a video or batch; a constant, not a
#: setting.  An attention training part runs this many frames in one pass.
FRAMES_PER_PASS = 8

#: Frames of one serving pass.  Two passes run at once, one on the calling
#: thread and one on the worker, so ``FRAMES_PER_PASS`` frames are in flight;
#: a constant, so the bytes depend only on the inputs, never on threads.
SERVING_PASS = FRAMES_PER_PASS // 2


def attention_predict(
    entries: Entries, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame attention pass over a sequence, ``SERVING_PASS`` frames at a time.

    frames (t, 3, h, w) -> maps (t, m, h/4, w/4), features (t, m, 8c),
    probabilities (t, m).  Through ``tensor.in_halves``, the caller runs the
    first half of an even number of passes and the worker the second, and
    neither splits its convolutions; an odd last pass runs alone, and may.
    Each is the ``stage1_forward`` it would be alone, joined in pass order,
    so the bytes do not depend on threads.  The first failed pass, in pass
    order, raises once both halves have finished.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4:
        raise ShapeError(f"expected a batch of frames, got shape {frames.shape}")
    parts = [None] * max(math.ceil(len(frames) / SERVING_PASS), 1)  # no frames: one empty pass

    def run(i0, i1):  # passes [i0, i1)
        for i in range(i0, i1):
            start = i * SERVING_PASS
            parts[i] = stage1_forward(entries, T.Tensor(frames[start:start + SERVING_PASS]))

    paired = len(parts) - len(parts) % 2
    T.in_halves(paired, run)
    run(paired, len(parts))
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
