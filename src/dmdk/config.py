"""Run configuration: a JSON file overlaid on defaults, strictly validated.

Unknown keys and wrong types are hard errors naming the dotted field; there
is no silent coercion beyond accepting JSON integers for float fields.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .text import decode_utf8, parse_json


@dataclass
class ModelSection:
    d: int = 512
    heads: int = 8
    decoder_layers: int = 3
    gcn_layers: int = 2
    ffn_multiplier: int = 4


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
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    fusion: FusionSection = field(default_factory=FusionSection)
    train: TrainSection = field(default_factory=TrainSection)
    decode: DecodeSection = field(default_factory=DecodeSection)
    paths: PathsSection = field(default_factory=PathsSection)
    labels: LabelsSection = field(default_factory=LabelsSection)
    ablation: str = "full"


def _field_types() -> dict[str, object]:
    """Dotted "section.key" (and the top-level "ablation") -> annotated type."""
    out: dict[str, object] = {"ablation": str}
    for section in fields(RunConfig):
        if section.name != "ablation":
            for key, hint in get_type_hints(section.default_factory).items():
                out[f"{section.name}.{key}"] = hint
    return out


_FIELD_TYPES = _field_types()


def _checked(name: str, value):
    expected = _FIELD_TYPES[name]
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


def parse_config(obj: dict) -> RunConfig:
    """Overlay a parsed JSON object onto the defaults, then validate."""
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    run = RunConfig()
    sections = {f.name: getattr(run, f.name) for f in fields(run) if f.name != "ablation"}
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
    checks = [  # (field, value, least allowed, most allowed or None for no bound)
        ("model.d", m.d, 1, 4096),
        ("model.heads", m.heads, 1, None),
        ("model.decoder_layers", m.decoder_layers, 1, 32),
        ("model.gcn_layers", m.gcn_layers, 1, 32),
        ("model.ffn_multiplier", m.ffn_multiplier, 1, 16),
        ("train.batch", t.batch, 1, None),
        ("train.epochs", t.epochs, 0, None),
        ("train.seed", t.seed, 0, None),
        ("train.min_freq", t.min_freq, 1, None),
        ("decode.max_length", d.max_length, 1, None),
    ]
    for name, value, least, most in checks:
        if value < least or (most is not None and value > most):
            allowed = f">= {least}" if most is None else f"{least}..{most}"
            raise ValueError(f"config field {name!r} is out of range: {value} (allowed {allowed})")
    if m.d % m.heads != 0:
        raise ValueError(f"model.d={m.d} is not divisible by model.heads={m.heads}")
    for name, v in (("lambda1", f.lambda1), ("lambda2", f.lambda2), ("lambda3", f.lambda3)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"fusion.{name} must be positive and finite, got {v}")
    if not (math.isfinite(t.lr) and t.lr > 0):
        raise ValueError(f"train.lr must be positive and finite, got {t.lr}")
    if not (math.isfinite(t.weight_decay) and t.weight_decay >= 0):
        raise ValueError(f"train.weight_decay must be >= 0 and finite, got {t.weight_decay}")
    if run.paths.base_graph == "":
        raise ValueError("paths.base_graph must be null or a nonempty path")
    if run.labels.fallback not in ("all", "findings"):
        raise ValueError(
            f"labels.fallback must be 'all' or 'findings', got {run.labels.fallback!r}"
        )
    if run.ablation not in ("base", "dke", "ske", "full"):
        raise ValueError(
            f"ablation must be one of base, dke, ske, full; got {run.ablation!r}"
        )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    obj = parse_json(decode_utf8(path.read_bytes(), str(path)), str(path))
    try:
        return parse_config(obj)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def effective_dict(run: RunConfig) -> dict:
    """The fully resolved configuration (input plus defaults), round-trippable."""
    return asdict(run)
