"""Flat configuration with presets, strict key checking, and validation.

The `desk` preset is small enough to train and test on a laptop CPU in
seconds; `full` mirrors the dimensions a large pretrained-encoder setup
would use.  A config file is one JSON object; it may name a `preset` to
start from, and every other key must match a known field exactly
(unknown keys are hard errors, not warnings).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

TASKS = ("ti", "fi", "srl", "joint")


class ConfigError(ValueError):
    pass


# The values each field type accepts, as the JSON config spells them: a
# JSON integer is also a float, and true/false is never a number.
_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


@dataclass
class Config:
    # embedding and encoder dimensions
    token_dim: int = 48
    pos_dim: int = 16
    gcn_emb_dim: int = 32
    gcn_dim: int = 32
    gcn_layers: int = 2
    lstm_hidden: int = 32
    lstm_layers: int = 2
    # head dimensions
    lu_dim: int = 32
    frame_dim: int = 32
    fi_hidden1: int = 64
    fi_hidden2: int = 48
    ai_pr_dim: int = 64
    ai_pb_dim: int = 64
    ac_dim: int = 64
    # optimization
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    l2_crf: float = 1e-4
    l2_bilinear: float = 1e-4
    grad_clip: float = 10.0
    batch_size: int = 8
    max_epochs: int = 200
    scheduler_patience: int = 5
    scheduler_factor: float = 0.5
    scheduler_threshold: float = 1e-4
    early_stop_patience: int = 100
    dropout: float = 0.0
    seed: int = 0
    # behavior
    task: str = "joint"
    use_gcn: bool = True
    stop_metric: float | None = None

    def validate(self) -> "Config":
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, kind_name = _KINDS[f.type]
            if (not isinstance(value, kinds)
                    or isinstance(value, bool) and bool not in kinds):
                raise ConfigError(f"{f.name} must be {kind_name}, "
                                  f"got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        dims = ("token_dim", "pos_dim", "gcn_emb_dim", "gcn_dim", "gcn_layers",
                "lstm_hidden", "lstm_layers", "lu_dim", "frame_dim",
                "fi_hidden1", "fi_hidden2", "ai_pr_dim", "ai_pb_dim", "ac_dim",
                "batch_size", "max_epochs", "scheduler_patience",
                "early_stop_patience")
        for name in dims:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if 2 * self.lstm_hidden != self.token_dim + self.pos_dim:
            raise ConfigError(
                "residual connection needs the backbone output to match the "
                f"embedding width: 2*lstm_hidden ({2 * self.lstm_hidden}) != "
                f"token_dim+pos_dim ({self.token_dim + self.pos_dim})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if not 0.0 < self.scheduler_factor <= 1.0:
            raise ConfigError("scheduler_factor must be in (0, 1]")
        for name in ("adam_eps", "grad_clip"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("lr", "weight_decay", "l2_crf", "l2_bilinear",
                     "scheduler_threshold"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ConfigError("beta1 and beta2 must be in (0, 1)")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


# The full preset keeps the desk defaults except where a bigger setup
# differs; the list shows only the overrides.
PRESETS: dict[str, dict] = {
    "desk": {},
    "full": {
        "token_dim": 768,
        "pos_dim": 20,
        "gcn_emb_dim": 128,
        "gcn_dim": 128,
        "lstm_hidden": 394,
        "lu_dim": 128,
        "frame_dim": 128,
        "fi_hidden1": 788,
        "fi_hidden2": 512,
        "ai_pr_dim": 256,
        "ai_pb_dim": 256,
        "ac_dim": 256,
        "lr": 2e-5,
        "dropout": 0.2,
    },
}

_FIELDS = {f.name for f in fields(Config)}

# Former fields, each fixed at the one value the model still implements;
# older configs and checkpoints may name them only with that value.
RETIRED = {"gcn_mean_aggregation": False, "path_include_endpoints": True,
           "constrain_training": True}


def config_from_dict(data: dict) -> Config:
    data = dict(data)
    for key, kept in RETIRED.items():
        if key in data and data.pop(key) is not kept:
            raise ConfigError(f"{key} is retired; only {json.dumps(kept)} "
                              "is accepted")
    preset = data.pop("preset", "desk")
    if preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        )
    unknown = set(data) - _FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**PRESETS[preset], **data}
    return Config(**merged).validate()


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    data: dict = {}
    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as e:  # also a file that is not UTF-8
                raise ConfigError(f"{path}: invalid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    if overrides:
        data.update(overrides)
    return config_from_dict(data)
