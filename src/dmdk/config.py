"""Run configuration: a JSON file overlaid on defaults, strictly validated.

Unknown keys and wrong types are hard errors naming the dotted field; there
is no silent coercion beyond accepting JSON integers for float fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class ModelSection:
    d: int = 512
    heads: int = 8
    decoder_layers: int = 3
    gcn_layers: int = 2
    ffn_multiplier: int = 4
    positional: str = "sinusoidal"
    pre_norm: bool = False


@dataclass
class FusionSection:
    # raw mixture weights; normalized to sum to 1 when the model is built
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0


@dataclass
class TrainSection:
    lr: float = 1e-4
    batch: int = 128
    weight_decay: float = 1e-3
    epochs: int = 30
    seed: int = 0
    min_freq: int = 3


@dataclass
class DecodeSection:
    max_length: int = 64


@dataclass
class PathsSection:
    base_graph: str | None = None


@dataclass
class LabelsSection:
    fallback: str = "all"  # which base-graph nodes back up empty tag extraction


@dataclass
class FeaturesSection:
    fuse: str = "concat"  # how two projected views combine: concat | mean


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    fusion: FusionSection = field(default_factory=FusionSection)
    train: TrainSection = field(default_factory=TrainSection)
    decode: DecodeSection = field(default_factory=DecodeSection)
    paths: PathsSection = field(default_factory=PathsSection)
    labels: LabelsSection = field(default_factory=LabelsSection)
    features: FeaturesSection = field(default_factory=FeaturesSection)
    ablation: str = "full"


_FIELD_TYPES: dict[str, type | tuple] = {
    "model.d": int,
    "model.heads": int,
    "model.decoder_layers": int,
    "model.gcn_layers": int,
    "model.ffn_multiplier": int,
    "model.positional": str,
    "model.pre_norm": bool,
    "fusion.lambda1": float,
    "fusion.lambda2": float,
    "fusion.lambda3": float,
    "train.lr": float,
    "train.batch": int,
    "train.weight_decay": float,
    "train.epochs": int,
    "train.seed": int,
    "train.min_freq": int,
    "decode.max_length": int,
    "paths.base_graph": (str, type(None)),
    "labels.fallback": str,
    "features.fuse": str,
    "ablation": str,
}


def _checked(name: str, value):
    expected = _FIELD_TYPES[name]
    if expected is bool:
        if not isinstance(value, bool):
            raise ValueError(f"config field {name!r} must be a boolean, got {value!r}")
        return value
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config field {name!r} must be an integer, got {value!r}")
        return value
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config field {name!r} must be a number, got {value!r}")
        return float(value)
    if expected is str:
        if not isinstance(value, str):
            raise ValueError(f"config field {name!r} must be a string, got {value!r}")
        return value
    # optional string
    if value is not None and not isinstance(value, str):
        raise ValueError(f"config field {name!r} must be a string or null, got {value!r}")
    return value


def default_config() -> RunConfig:
    return RunConfig()


def parse_config(obj: dict) -> RunConfig:
    """Overlay a parsed JSON object onto the defaults, then validate."""
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    run = RunConfig()
    sections = {
        "model": run.model,
        "fusion": run.fusion,
        "train": run.train,
        "decode": run.decode,
        "paths": run.paths,
        "labels": run.labels,
        "features": run.features,
    }
    for key, value in obj.items():
        if key == "ablation":
            run.ablation = _checked("ablation", value)
            continue
        section = sections.get(key)
        if section is None:
            raise ValueError(f"unknown config section {key!r}")
        if not isinstance(value, dict):
            raise ValueError(f"config section {key!r} must be an object")
        for sub, sval in value.items():
            dotted = f"{key}.{sub}"
            if dotted not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {dotted!r}")
            setattr(section, sub, _checked(dotted, sval))
    validate_config(run)
    return run


def validate_config(run: RunConfig) -> None:
    m, f, t, d = run.model, run.fusion, run.train, run.decode
    checks = [
        ("model.d", m.d >= 1),
        ("model.heads", m.heads >= 1),
        ("model.decoder_layers", m.decoder_layers >= 1),
        ("model.gcn_layers", m.gcn_layers >= 1),
        ("model.ffn_multiplier", m.ffn_multiplier >= 1),
        ("train.batch", t.batch >= 1),
        ("train.epochs", t.epochs >= 0),
        ("train.min_freq", t.min_freq >= 1),
        ("decode.max_length", d.max_length >= 1),
    ]
    for name, ok in checks:
        if not ok:
            raise ValueError(f"config field {name!r} is out of range")
    if m.d % m.heads != 0:
        raise ValueError(f"model.d={m.d} is not divisible by model.heads={m.heads}")
    if m.positional not in ("sinusoidal", "learned"):
        raise ValueError(
            f"model.positional must be 'sinusoidal' or 'learned', got {m.positional!r}"
        )
    for name, v in (("lambda1", f.lambda1), ("lambda2", f.lambda2), ("lambda3", f.lambda3)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"fusion.{name} must be positive and finite, got {v}")
    if not (math.isfinite(t.lr) and t.lr > 0):
        raise ValueError(f"train.lr must be positive and finite, got {t.lr}")
    if not (math.isfinite(t.weight_decay) and t.weight_decay >= 0):
        raise ValueError(f"train.weight_decay must be >= 0, got {t.weight_decay}")
    if run.labels.fallback not in ("all", "findings"):
        raise ValueError(
            f"labels.fallback must be 'all' or 'findings', got {run.labels.fallback!r}"
        )
    if run.features.fuse not in ("concat", "mean"):
        raise ValueError(f"features.fuse must be 'concat' or 'mean', got {run.features.fuse!r}")
    if run.ablation not in ("base", "dke", "ske", "full"):
        raise ValueError(
            f"ablation must be one of base, dke, ske, full; got {run.ablation!r}"
        )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return parse_config(obj)


def effective_dict(run: RunConfig) -> dict:
    """The fully resolved configuration (input plus defaults), round-trippable."""
    return {
        "model": {
            "d": run.model.d,
            "heads": run.model.heads,
            "decoder_layers": run.model.decoder_layers,
            "gcn_layers": run.model.gcn_layers,
            "ffn_multiplier": run.model.ffn_multiplier,
            "positional": run.model.positional,
            "pre_norm": run.model.pre_norm,
        },
        "fusion": {
            "lambda1": run.fusion.lambda1,
            "lambda2": run.fusion.lambda2,
            "lambda3": run.fusion.lambda3,
        },
        "train": {
            "lr": run.train.lr,
            "batch": run.train.batch,
            "weight_decay": run.train.weight_decay,
            "epochs": run.train.epochs,
            "seed": run.train.seed,
            "min_freq": run.train.min_freq,
        },
        "decode": {"max_length": run.decode.max_length},
        "paths": {"base_graph": run.paths.base_graph},
        "labels": {"fallback": run.labels.fallback},
        "features": {"fuse": run.features.fuse},
        "ablation": run.ablation,
    }
