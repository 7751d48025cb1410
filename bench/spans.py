"""Spans around aukit's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
``aukit`` module that holds it, because ``from .backbone import ...`` binds
the name in the importing module too: patching only the defining module
would miss those calls.  Spans are kept in memory as
``[name, start, end, parent]`` and written out once, at the end.

Self time is a span's duration minus the durations of its direct children;
calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


#: Tensor operations whose calls are counted; the first group also gets
#: self time and call counts of its own.
TIMED_OPS = ("conv2d", "conv2d_per_patch", "maxpool2d", "tanh", "sigmoid",
             "graph_matmul", "pad_edge", "concat")
LAYOUT_OPS = ("reshape", "transpose")
OTHER_OPS = ("add", "sub", "mul", "scalar_mul", "scalar_add", "log", "clamp",
             "slice_axis", "matmul", "per_node_head", "bias_add_row", "sum_all",
             "mean_all", "broadcast_mul_channelwise", "global_avg_pool")
TENSOR_OPS = TIMED_OPS + LAYOUT_OPS + OTHER_OPS

#: (module, function) pairs traced besides the tensor operations.
FUNCTIONS = (
    ("dataset", "generate_video_labels"), ("dataset", "render_video"),
    ("serialize", "save_tensor"), ("serialize", "load_tensor"),
    ("serialize", "save_checkpoint"), ("serialize", "load_checkpoint"),
    ("backbone", "region_layer_forward"), ("backbone", "attention_branch_forward"),
    ("stgcn", "gst_layer_forward"),
    ("losses", "attention_stage_loss"), ("losses", "au_detection_loss"),
    ("training", "sgd_step"),
    ("model", "sequence_features"), ("model", "init_attention_entries"),
    ("model", "load_model"),
    ("graph", "build_graph"), ("metrics", "f1_accuracy"), ("cli", "main"),
)

#: Per-layer metrics and their units.  Times, counts and computed costs are
#: per traced round of the workload; the two ``ops_per_*`` ratios are not.
PER_LAYER = {
    "rng.uniform_array.self_s": "s",
    "rng.normal_array.self_s": "s",
    "rng.draws": "count",
    "dataset.generate_video_labels.self_s": "s",
    "dataset.render_video.self_s": "s",
    "serialize.save_tensor.self_s": "s",
    "serialize.load_tensor.self_s": "s",
    "serialize.load_checkpoint.self_s": "s",
    "serialize.bytes_written": "bytes",
    **{f"tensor.{op}.self_s": "s" for op in TIMED_OPS},
    **{f"tensor.{op}.calls": "count" for op in TIMED_OPS},
    "tensor.layout.self_s": "s",
    "tensor.Tape.backward.self_s": "s",
    "tensor.ops_per_step": "count",
    "tensor.conv2d.gflop": "GFLOP-calc",
    "tensor.conv2d_per_patch.gflop": "GFLOP-calc",
    "tensor.conv2d_per_patch.im2col_mb": "MB-calc",
    "backbone.region_layer_forward.incl_s": "s",
    "backbone.attention_branch_forward.incl_s": "s",
    "stgcn.gst_layer_forward.incl_s": "s",
    "stgcn.ops_per_layer": "count",
    "losses.attention_stage_loss.incl_s": "s",
    "losses.au_detection_loss.incl_s": "s",
    "training.sgd_step.self_s": "s",
    "model.sequence_features.incl_s": "s",
    "model.init_attention_entries.incl_s": "s",
    "model.load_model.incl_s": "s",
    "graph.build_graph.incl_s": "s",
    "metrics.f1_accuracy.self_s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _conv_cost(kernels, out) -> tuple[float, float]:
    """Forward flops and im2col bytes of a convolution, from its shapes."""
    co, ci, kh, kw = kernels.shape[-4:]
    depth = ci * kh * kw
    return 2.0 * out.size * depth, 8.0 * (out.size // co) * depth


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "aukit" or mod_name.startswith("aukit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import aukit.cli  # noqa: F401  (imports every module that is traced)
        from aukit import rng, tensor

        counters = self.counters

        def count_draws(args, out):
            counters["rng.draws"] += out.size

        def count_bytes(args, out):
            counters["serialize.bytes_written"] += os.path.getsize(args[0])

        def conv_hook(op):
            def hook(args, out):
                flops, im2col = _conv_cost(args[1], out)
                counters[f"tensor.{op}.gflop"] += flops / 1e9
                if op == "conv2d_per_patch":
                    counters["tensor.conv2d_per_patch.im2col_mb"] += im2col / 1e6
            return hook

        for cls, attr, span in ((rng.Xoshiro256pp, "uniform_array", "rng.uniform_array"),
                                (rng.Xoshiro256pp, "normal_array", "rng.normal_array"),
                                (tensor.Tape, "backward", "tensor.Tape.backward")):
            original = getattr(cls, attr)
            hook = count_draws if span.startswith("rng.") else None
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original, hook))
        for op in TENSOR_OPS:
            hook = conv_hook(op) if op.startswith("conv2d") else None
            original = getattr(tensor, op)
            self._patch_everywhere(original, self.wrap(f"tensor.{op}", original, hook))
        for module, fn_name in FUNCTIONS:
            mod = sys.modules[f"aukit.{module}"]
            original = getattr(mod, fn_name)
            hook = count_bytes if fn_name.startswith("save_") else None
            self._patch_everywhere(original, self.wrap(f"{module}.{fn_name}", original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fp)

    def layer_metrics(self, rounds: int) -> Dict[str, float]:
        """Per-layer totals divided by the number of traced rounds."""
        spans = self.spans
        incl: Dict[str, float] = defaultdict(float)
        child = [0.0] * len(spans)
        calls: Counter = Counter()
        for name, start, end, parent in spans:
            incl[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(spans, child):
            own[name] += end - start - inner

        # Ancestry, in one pass: parents are recorded before their children.
        unit: List[str] = []
        in_layer: List[bool] = []
        for name, _, _, parent in spans:
            unit.append(name if parent < 0 else unit[parent])
            in_layer.append(name == "stgcn.gst_layer_forward"
                            or (parent >= 0 and in_layer[parent]))
        op_names = {f"tensor.{op}" for op in TENSOR_OPS}
        step_ops = steps = layer_ops = 0
        for i, (name, _, _, parent) in enumerate(spans):
            if unit[i] == "unit.attention_s":
                step_ops += name in op_names
                steps += name == "training.sgd_step"
            if name in op_names and parent >= 0 and in_layer[parent]:
                layer_ops += 1

        out: Dict[str, float] = {}
        for metric in PER_LAYER:
            if metric.startswith("trace."):
                continue
            base, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = own.get(base, 0.0)
            elif kind == "incl_s":
                out[metric] = incl.get(base, 0.0)
            elif kind == "calls":
                out[metric] = float(calls.get(base, 0))
            else:
                out[metric] = self.counters.get(metric, 0.0)
        out["tensor.layout.self_s"] = sum(own.get(f"tensor.{op}", 0.0) for op in LAYOUT_OPS)
        # The two ratios are per step and per layer, not per round.
        out["trace.spans"] = float(len(spans))
        out = {k: v / rounds for k, v in out.items()}
        out["tensor.ops_per_step"] = step_ops / steps if steps else 0.0
        calls_gst = calls.get("stgcn.gst_layer_forward", 0)
        out["stgcn.ops_per_layer"] = layer_ops / calls_gst if calls_gst else 0.0
        return out
