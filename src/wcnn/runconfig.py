"""Flat `key = value` run configuration with dotted namespaces.

Files use one `key = value` pair per line, '#' comments, blank lines allowed.
Command-line overrides (`--set key=value`) are applied on top.  The canonical
serialization (sorted keys, normalized spacing) is hashed into every run
artifact so reports are traceable to their exact configuration.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .model import WaveletCnnConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in cfg:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"), str(path))


def apply_overrides(cfg: dict[str, str], overrides) -> dict[str, str]:
    out = dict(cfg)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def canonical_text(cfg: dict[str, str]) -> str:
    return "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg)) + "\n"


def config_hash(cfg: dict[str, str]) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()[:12]


def _get(cfg, key, default, convert, what):
    raw = cfg.get(key)
    if raw is None or raw == "":
        return default
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {what}, got {raw!r}") from None


def get_int(cfg, key, default=0) -> int:
    return _get(cfg, key, default, int, "an integer")


def get_float(cfg, key, default=0.0) -> float:
    return _get(cfg, key, default, float, "a number")


def get_str(cfg, key, default="") -> str:
    return cfg.get(key, default)


def get_bool(cfg, key, default=False) -> bool:
    raw = cfg.get(key)
    if raw is None or raw == "":
        return default
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def get_int_tuple(cfg, key, default=()) -> tuple[int, ...]:
    raw = cfg.get(key)
    if raw is None or raw == "":
        return tuple(default)
    try:
        return tuple(int(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}") from None


KNOWN_KEYS = {
    "seed",
    "model.levels", "model.input_size", "model.input_channels", "model.channels",
    "model.blocks_per_stage", "model.classes", "model.head", "model.embedding_dim",
    "model.proj_fraction", "model.ablated", "model.wavelet", "model.precision",
    "model.bn_epsilon", "model.bn_momentum",
    "train.epochs", "train.batch_size", "train.lr", "train.lr_decay_every",
    "train.lr_decay_factor", "train.beta1", "train.beta2",
    "train.epsilon", "train.augment", "train.resize_to", "train.flip", "train.eval_every",
    "data.manifest", "data.policy", "data.split", "data.k",
}


def check_known_keys(cfg: dict[str, str]) -> None:
    unknown = set(cfg) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def model_config_from(cfg: dict[str, str]) -> WaveletCnnConfig:
    return WaveletCnnConfig(
        levels=get_int(cfg, "model.levels", 5),
        input_size=get_int(cfg, "model.input_size", 224),
        input_channels=get_int(cfg, "model.input_channels", 3),
        channels=get_int_tuple(cfg, "model.channels"),
        blocks_per_stage=get_int(cfg, "model.blocks_per_stage", 2),
        num_classes=get_int(cfg, "model.classes", 1000),
        head=get_str(cfg, "model.head", "softmax"),
        embedding_dim=get_int(cfg, "model.embedding_dim", 0),
        proj_fraction=get_float(cfg, "model.proj_fraction", 0.25),
        ablated=get_bool(cfg, "model.ablated", False),
        wavelet=get_str(cfg, "model.wavelet", "haar"),
        bn_epsilon=get_float(cfg, "model.bn_epsilon", 1e-5),
        bn_momentum=get_float(cfg, "model.bn_momentum", 0.1),
        precision=get_str(cfg, "model.precision", "f32"),
        init_seed=get_int(cfg, "seed", 0),
    )


def train_config_from(cfg: dict[str, str]) -> TrainConfig:
    return TrainConfig(
        epochs=get_int(cfg, "train.epochs", 50),
        batch_size=get_int(cfg, "train.batch_size", 16),
        lr=get_float(cfg, "train.lr", 1e-3),
        lr_decay_every=get_int(cfg, "train.lr_decay_every", 0),
        lr_decay_factor=get_float(cfg, "train.lr_decay_factor", 0.1),
        beta1=get_float(cfg, "train.beta1", 0.9),
        beta2=get_float(cfg, "train.beta2", 0.999),
        adam_epsilon=get_float(cfg, "train.epsilon", 1e-8),
        seed=get_int(cfg, "seed", 0),
        augment=get_bool(cfg, "train.augment", True),
        resize_to=get_int(cfg, "train.resize_to", 0),
        flip=get_bool(cfg, "train.flip", True),
        eval_every=get_int(cfg, "train.eval_every", 1),
    )
