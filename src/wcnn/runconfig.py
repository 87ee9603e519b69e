"""Flat `key = value` run configuration with dotted namespaces.

Files use one `key = value` pair per line, '#' comments, blank lines allowed;
`schema.parse_config_text` reads them, as it reads the checkpoint config block.
Command-line overrides (`--set key=value`) are applied on top.  The canonical
serialization (sorted keys, normalized spacing) is hashed into every run
artifact so reports are traceable to their exact configuration.

The `model.*` and `train.*` keys, their defaults and their types are derived
from the `WaveletCnnConfig` and `TrainConfig` dataclass fields (see `schema`);
only `model.classes` (`num_classes`), `train.epsilon` (`adam_epsilon`) and the
shared `seed` (`init_seed` and `seed`) are renamed.  The `data.*` keys are
read where they are used.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .model import WaveletCnnConfig
from .schema import ConfigError, field_keys, from_items, parse_config_text
from .tensor import read_text
from .train import TrainConfig


def load_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(read_text(path, ConfigError), str(path))


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


MODEL_KEYS = field_keys(WaveletCnnConfig, "model.", num_classes="model.classes",
                        init_seed="seed")
TRAIN_KEYS = field_keys(TrainConfig, "train.", adam_epsilon="train.epsilon", seed="seed",
                        checkpoint_path=None)
KNOWN_KEYS = {*MODEL_KEYS.values(), *TRAIN_KEYS.values(),
              "data.manifest", "data.policy", "data.split", "data.k"}


def check_known_keys(cfg: dict[str, str]) -> None:
    unknown = set(cfg) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def model_config_from(cfg: dict[str, str]) -> WaveletCnnConfig:
    return from_items(WaveletCnnConfig, cfg, MODEL_KEYS)


def train_config_from(cfg: dict[str, str]) -> TrainConfig:
    return from_items(TrainConfig, cfg, TRAIN_KEYS)
