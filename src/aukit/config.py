"""Hyperparameter bundle, named presets, and JSON config loading."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .backbone import FRAME_MULTIPLE
from .errors import ConfigError
from .serialize import load_json_object, read_fields


@dataclass
class HyperParams:
    l: int                 # crop size (pixels)
    c: int                 # channel base; backbone emits 8c channels
    t: int                 # training sequence length (frames)
    m: int                 # label count
    t_k: int               # temporal kernel size (odd)
    tau: float = 0.15      # correlation threshold for graph edges (> 1: identity graph)
    lambda_r: float = 1e-4 # attention regularization weight
    depth: int = 8         # stacked graph-conv layers
    batch_size: int = 8    # sequences per optimizer step
    momentum: float = 0.9
    weight_decay: float = 5e-4
    attention_lr: float = 0.006
    attention_decay: float = 0.3
    attention_period: int = 2   # epochs between decays
    attention_epochs: int = 12
    relation_lr: float = 0.02
    relation_decay: float = 0.3
    relation_period: int = 6
    relation_epochs: int = 24
    freeze_backbone: bool = True

    def validate(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.l < FRAME_MULTIPLE or self.l % FRAME_MULTIPLE:
            raise ConfigError(f"l must be a positive multiple of {FRAME_MULTIPLE}, got {self.l}")
        if self.c < 1 or self.t < 1 or self.m < 1 or self.depth < 1:
            raise ConfigError("c, t, m and depth must be positive")
        if self.t_k < 1 or self.t_k % 2 == 0:
            raise ConfigError(f"t_k must be odd and positive, got {self.t_k}")
        if self.lambda_r < 0.0:
            raise ConfigError(f"lambda_r must be >= 0, got {self.lambda_r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be >= 0")
        for stage in ("attention", "relation"):
            lr, decay, period, epochs = (getattr(self, f"{stage}_{key}")
                                         for key in ("lr", "decay", "period", "epochs"))
            if lr <= 0.0:
                raise ConfigError(f"{stage}_lr must be positive")
            if not 0.0 < decay <= 1.0:
                raise ConfigError(f"{stage}_decay must lie in (0, 1]")
            if period < 1 or epochs < 0:
                raise ConfigError(f"{stage} schedule fields out of range")


#: Desk-scale configuration used by the test-suite and quick experiments.
#: The schedule differs from the reference one, which assumes thousands of
#: optimizer steps per epoch; at 16 synthetic videos an epoch is 16 steps,
#: so the toy preset uses a higher rate held longer (tuned to overfit the
#: default synthetic set within a few minutes on one CPU).
TOY = HyperParams(
    l=32, c=2, t=8, m=4, t_k=3,
    batch_size=4,
    attention_lr=0.3, attention_epochs=24, attention_period=16,
    relation_lr=0.3, relation_epochs=24, relation_period=12,
)

#: Reference-scale configuration (12-label frontal-face setting).
PAPER = HyperParams(l=176, c=8, t=48, m=12, t_k=5)

PRESETS: Mapping[str, HyperParams] = {"toy": TOY, "paper": PAPER}


def resolve(preset: Optional[str] = None,
            overrides: Optional[Mapping[str, object]] = None) -> HyperParams:
    """Start from a preset (default: toy) and apply overrides, read by their annotations."""
    name = preset or "toy"
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    hp = dataclasses.replace(
        PRESETS[name], **read_fields(HyperParams, overrides or {}, "hyperparameters"))
    hp.validate()
    return hp


def load_config(path, overrides: Optional[Mapping[str, object]] = None) -> HyperParams:
    """Read a JSON config: optional "preset" key plus field overrides, then ``overrides``."""
    config = load_json_object(path, "config file")
    return resolve(config.pop("preset", None), {**config, **(overrides or {})})
