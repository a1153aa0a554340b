"""Run configuration: one JSON document with flag overrides.

Sections: synth, model (vit, resnet), train, fusion.  Every
field has a default; the fully-defaulted document is valid; unknown keys
are rejected.  Precedence: --seed and --epochs > --set flag > file > default.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .resnet import ResNetConfig
from .synth import SynthConfig
from .train import FusionWeights, TrainConfig
from .util import read_json_object
from .vit import ViTConfig


@dataclass
class RunConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    vit: ViTConfig = field(default_factory=ViTConfig)
    resnet: ResNetConfig = field(default_factory=ResNetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    fusion: FusionWeights = field(default_factory=FusionWeights)

    def to_dict(self) -> dict:
        return {
            "synth": asdict(self.synth),
            "model": {"vit": asdict(self.vit), "resnet": asdict(self.resnet)},
            "train": asdict(self.train),
            "fusion": asdict(self.fusion),
        }


def default_config_dict() -> dict:
    return RunConfig().to_dict()


def _merge(base: dict, user, path: str = "") -> None:
    if not isinstance(user, dict):
        raise ConfigError(f"config section {path} must be an object")
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r:.60}")
        if key == "counts":  # free-form class-count map, replaced wholesale
            base[key] = value
        elif isinstance(base[key], dict):
            _merge(base[key], value, where)
        else:
            base[key] = value


def apply_override(cfg: dict, spec: str) -> None:
    """Apply one --set override of the form section.key[.key]=value."""
    if "=" not in spec:
        raise ConfigError(f"--set expects section.key=value, got {spec!r:.60}")
    dotted, _, raw = spec.partition("=")
    keys = dotted.strip().split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"--set: unknown config path {dotted!r:.60}")
        node = node[k]
    leaf = keys[-1]
    if not isinstance(node, dict):
        raise ConfigError(f"--set: unknown config path {dotted!r:.60}")
    if leaf not in node and keys[-2:-1] != ["counts"]:
        raise ConfigError(f"--set: unknown config key {dotted!r:.60}")
    try:
        node[leaf] = json.loads(raw)
    except (ValueError, RecursionError):
        # a bare string needs no quotes; one nested too deep or with an integer
        # too long to read meets its field's check
        node[leaf] = raw


def _construct(d: dict) -> RunConfig:
    """Build the typed config; each dataclass decodes and checks its own fields."""
    try:
        return RunConfig(
            synth=SynthConfig(**d["synth"]),
            vit=ViTConfig(**d["model"]["vit"]),
            resnet=ResNetConfig(**d["model"]["resnet"]),
            train=TrainConfig(**d["train"]),
            fusion=FusionWeights(**d["fusion"]),
        )
    except (TypeError, ValueError) as e:  # a value of the wrong type or shape
        raise ConfigError(f"invalid config value: {e}") from None


def load_run_config(path=None, overrides: list[str] | None = None,
                    seed: int | None = None) -> RunConfig:
    """Assemble config from defaults, optional file, --set overrides, --seed."""
    merged = default_config_dict()
    if path is not None:
        _merge(merged, read_json_object(Path(path).read_bytes(), f"config {path}", ConfigError))
    for spec in overrides or ():
        apply_override(merged, spec)
    # a --set may replace a section: read each one back as a --config file's
    checked = default_config_dict()
    _merge(checked, merged)
    if seed is not None:
        checked["synth"]["seed"] = seed
        checked["train"]["seed"] = seed
    return _construct(checked)
