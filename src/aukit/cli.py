"""Command line for the detection pipeline.

Subcommands cover the full workflow: synthetic data generation, the two
training stages (the relation stage builds its graph from the training
labels), evaluation, per-frame inference, and attention-map export.

Exit codes: 0 success, 2 usage or configuration problem, 3 I/O failure,
4 numerical failure (NaN).
"""

from __future__ import annotations

import sys

if __name__ == "__main__":  # ``python -m aukit.cli``: before numpy loads
    from .launch import default_blas_threads

    default_blas_threads()

import argparse
import dataclasses
import json
import os
from typing import Optional

import numpy as np

from . import __version__
from .config import HyperParams, PRESETS, load_config, resolve
from .dataset import load_dataset, load_spec, generate, stacked_labels
from .errors import (
    AukitError,
    ConfigError,
    DataError,
    DomainError,
    FormatError,
    IoError,
    NumericalError,
    ShapeError,
)
from .graph import build_graph
from .metrics import binarize, f1_accuracy, save_metrics_csv
from .model import (
    attention_predict,
    embed_graph,
    extract_graph,
    load_model,
    model_dims,
    relation_predict,
    save_model,
)
from .serialize import au_columns, load_tensor, make_dirs, save_pgm, write_csv
from .training import (
    save_training_log,
    train_attention_stage,
    train_relation_stage,
)


class _Logger:
    def __init__(self, json_mode: bool):
        self.json_mode = json_mode

    def _emit(self, level: str, message: str, stream, **fields):
        if self.json_mode:
            print(json.dumps({"level": level, "msg": message, **fields}),
                  file=stream, flush=True)
        elif level == "info":
            print(message, file=stream, flush=True)
        else:
            print(f"{level}: {message}", file=stream, flush=True)

    def info(self, message: str, **fields):
        self._emit("info", message, sys.stdout, **fields)

    def error(self, message: str, **fields):
        self._emit("error", message, sys.stderr, **fields)


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")
    return text.lower() in ("true", "1", "yes")


def _add_hyperparam_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "hyperparameters", "override individual preset/config values"
    )
    kinds = {"int": int, "float": float, "bool": _parse_bool}
    for field in dataclasses.fields(HyperParams):
        group.add_argument("--" + field.name.replace("_", "-"), type=kinds[field.type],
                           default=None, metavar="V", help=f"override {field.name}")


def _resolve_hyperparams(args: argparse.Namespace) -> HyperParams:
    if args.config is not None and args.preset is not None:
        raise ConfigError("give either --config or --preset, not both")
    flags = {field.name: getattr(args, field.name) for field in dataclasses.fields(HyperParams)
             if getattr(args, field.name) is not None}
    return load_config(args.config, flags) if args.config else resolve(args.preset, flags)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_data(args, log: _Logger) -> int:
    try:
        spec = load_spec(args.spec)
    except IoError as exc:
        raise ConfigError(f"cannot read spec: {exc}") from exc
    generate(spec, args.out)
    log.info(f"wrote {spec.videos} videos to {args.out}",
             videos=spec.videos, out=args.out)
    return 0


def _cmd_train(args, log: _Logger) -> int:
    if args.stage == "attention" and args.stage1:
        raise ConfigError("--stage1 is for the relation stage only")
    if args.stage == "relation" and not args.stage1:
        raise ConfigError("relation stage requires --stage1 (a trained first-stage checkpoint)")
    hp = _resolve_hyperparams(args)
    sequences = load_dataset(args.data)
    resume = load_model(args.from_checkpoint) if args.from_checkpoint else None
    log_path = args.log if args.log else args.out + ".log.csv"

    summary = {}
    if args.stage == "attention":
        result = train_attention_stage(
            sequences, hp, args.seed, init_entries=resume, epochs=args.epochs
        )
        entries = result.entries
    else:
        graph = build_graph(stacked_labels(sequences), hp.tau)
        stage1 = load_model(args.stage1)
        result = train_relation_stage(
            sequences, graph, stage1, hp, args.seed,
            init_entries=resume, epochs=args.epochs,
        )
        entries = embed_graph(result.entries, graph)
        summary = {"nodes": graph.m, "edges": int(np.triu(graph.adjacency, 1).sum()),
                   "gravity": graph.gravity + 1, "tau": graph.tau}

    save_model(args.out, entries)
    save_training_log(log_path, result.log)
    final = result.log[-1][4] if result.log else None  # JSON null when no step ran
    graph_text = ", ".join(f"{name} {value}" for name, value in summary.items())
    log.info(
        f"trained {args.stage} stage for {len(result.log)} steps; "
        f"checkpoint {args.out}, log {log_path}" + (f"; graph {graph_text}" if summary else ""),
        stage=args.stage, steps=len(result.log), loss=final, out=args.out, **summary,
    )
    return 0


def _load_model_and_graph(ckpt_path):
    entries = load_model(ckpt_path)
    dims = model_dims(entries)
    graph = extract_graph(entries) if dims.depth else None
    if dims.depth and graph is None:
        raise ConfigError("checkpoint has relation layers but no embedded graph")
    return entries, dims, graph


def _predict_sequence(entries, dims, graph, frames: np.ndarray) -> np.ndarray:
    if dims.depth:
        return relation_predict(entries, graph, frames)
    return attention_predict(entries, frames)[2]


def _cmd_eval(args, log: _Logger) -> int:
    entries, dims, graph = _load_model_and_graph(args.ckpt)
    sequences = load_dataset(args.data)
    if not sequences:
        raise DataError(f"no sequences found under {args.data}")
    preds, truth = [], []
    for seq in sequences:
        preds.append(_predict_sequence(entries, dims, graph, seq.frames))
        truth.append(seq.labels)
    report = f1_accuracy(binarize(np.concatenate(preds)), np.concatenate(truth))
    save_metrics_csv(args.out, report)
    log.info(
        f"avg F1 {report.avg_f1:.4f}, avg accuracy {report.avg_accuracy:.4f} "
        f"over {len(sequences)} videos; wrote {args.out}",
        avg_f1=report.avg_f1, avg_accuracy=report.avg_accuracy, out=args.out,
    )
    return 0


def _load_frames(path) -> np.ndarray:
    frames = load_tensor(path)
    if frames.ndim != 4 or frames.shape[1] != 3:
        raise ShapeError(
            f"frames file must hold a (t, 3, h, w) tensor, got {frames.shape}"
        )
    return frames


def _cmd_infer(args, log: _Logger) -> int:
    entries, dims, graph = _load_model_and_graph(args.ckpt)
    frames = _load_frames(args.frames)
    probs = _predict_sequence(entries, dims, graph, frames)
    write_csv(args.out, ["frame_idx", *au_columns(dims.m)],
              ([i, *(repr(float(v)) for v in row)] for i, row in enumerate(probs)),
              "probabilities file", lineterminator="\n")
    log.info(f"wrote {len(probs)} rows to {args.out}",
             frames=len(probs), out=args.out)
    return 0


def _cmd_export_attention(args, log: _Logger) -> int:
    entries = load_model(args.ckpt)
    frames = _load_frames(args.frames)
    maps = attention_predict(entries, frames)[0]  # (t, m, h, w)
    stem = os.path.splitext(os.path.basename(args.frames))[0]
    make_dirs(args.out, "output directory")
    count = 0
    for i in range(maps.shape[0]):
        for j in range(maps.shape[1]):
            save_pgm(os.path.join(args.out, f"{stem}_{i}_{j + 1}.pgm"),
                     maps[i, j])
            count += 1
    log.info(f"wrote {count} attention maps to {args.out}",
             files=count, out=args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aukit",
        description="Facial-action detection pipeline: attention learning "
                    "plus spatio-temporal relation modelling.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-logs", action="store_true",
                        help="emit machine-readable JSON log lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common],
                       help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="dataset spec JSON")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", parents=[common], help="train one stage of the pipeline")
    p.add_argument("--stage", required=True, choices=("attention", "relation"))
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named preset (default toy)")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--stage1", help="first-stage checkpoint (relation stage)")
    p.add_argument("--from-checkpoint", help="resume from this checkpoint")
    p.add_argument("--epochs", type=int, default=None,
                   help="train this many epochs instead of the preset budget")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--log", help="training log CSV (default <out>.log.csv)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all random decisions (default 0)")
    _add_hyperparam_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output metrics CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("infer", parents=[common], help="per-frame probabilities for one video")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--frames", required=True, help="video tensor (.stnt)")
    p.add_argument("--out", required=True, help="output probabilities CSV")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("export-attention", parents=[common],
                       help="write attention maps as PGM images")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--frames", required=True, help="video tensor (.stnt)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_export_attention)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    log = _Logger(args.json_logs)
    try:
        return args.func(args, log)
    except (ConfigError, DataError, FormatError, DomainError, ShapeError) as exc:
        log.error(str(exc))
        return 2
    except IoError as exc:
        log.error(str(exc))
        return 3
    except NumericalError as exc:
        log.error(str(exc))
        return 4
    except AukitError as exc:  # internal invariants and anything unexpected
        log.error(f"internal error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
