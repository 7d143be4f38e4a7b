"""Run configuration: key=value files, flag overrides and config hashing.

The config file format is one `key = value` pair per line; blank lines
and lines starting with '#' are ignored. Keys match the RunConfig field
names. class_weights is three comma-separated floats. Flags always win
over file values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .classifier import FeatureSpec, TrainConfig
from .compliance import AuditConfig

PathLike = Union[str, Path]


def parse_kv_file(path: PathLike) -> dict[str, str]:
    """Parse a key=value file into raw strings."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


@dataclass(frozen=True)
class RunConfig:
    """Merged view of every knob a CLI command may need."""

    seed: Optional[int] = None
    folds: int = 10
    test_fold: int = 0
    split_mode: str = "row"
    # training
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    weight_decay: float = TrainConfig.weight_decay
    class_weights: tuple[float, float, float] = TrainConfig.class_weights
    # featurization
    hash_dim: int = FeatureSpec.hash_dim
    char_ngram_min: int = FeatureSpec.char_ngram_min
    char_ngram_max: int = FeatureSpec.char_ngram_max
    word_unigrams: bool = FeatureSpec.word_unigrams
    lowercase: bool = FeatureSpec.lowercase
    max_tokens: int = FeatureSpec.max_tokens
    # audit windows
    pre_window_ms: int = AuditConfig.pre_window_ms
    post_window_ms: int = AuditConfig.post_window_ms
    grace_ms: int = AuditConfig.grace_ms
    # decision
    threshold: Optional[float] = None
    # synthetic generation
    calls: int = 1000

    def _project(self, cls):
        """A cls built from the fields of the same names."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def train_config(self) -> TrainConfig:
        if self.seed is None:
            raise ValueError("seed is required for training")
        return self._project(TrainConfig)

    def feature_spec(self) -> FeatureSpec:
        return self._project(FeatureSpec)

    def audit_config(self) -> AuditConfig:
        return self._project(AuditConfig)


_FIELD_TYPES = get_type_hints(RunConfig)


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _convert(name: str, value: str) -> object:
    """Parse a raw config value into the type RunConfig declares for it."""
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    target = _FIELD_TYPES[name]
    if get_origin(target) is Union:  # Optional[X]
        (target,) = [t for t in get_args(target) if t is not type(None)]
    if get_origin(target) is tuple:
        parts = [float(x) for x in value.replace(";", ",").split(",") if x.strip()]
        if len(parts) != len(get_args(target)):
            raise ValueError(f"{name} needs {len(get_args(target))} values, got {len(parts)}")
        return tuple(parts)
    if target is bool:
        lowered = value.lower()
        if lowered not in _BOOL_VALUES:
            raise ValueError(f"{name}: expected a boolean, got {value!r}")
        return _BOOL_VALUES[lowered]
    return target(value)


def load_run_config(path: PathLike) -> RunConfig:
    return RunConfig(**{key: _convert(key, value) for key, value in parse_kv_file(path).items()})


def with_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Apply non-None overrides (CLI flags beat file values)."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    if isinstance(changes.get("class_weights"), str):
        changes["class_weights"] = _convert("class_weights", changes["class_weights"])
    return replace(config, **changes)


def config_hash(config: RunConfig) -> str:
    """Short stable digest of the parameter fields (paths excluded by design)."""
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(config, f.name)
        lines.append(f"{f.name}={value!r}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:12]
