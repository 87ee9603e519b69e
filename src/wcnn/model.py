"""The subband-injection classifier and its parameter accounting.

The backbone is a VGG-style stack of stages, one per decomposition level.
Stage t opens with a 3x3 stride-2 convolution that brings the feature maps to
extent input/2^t — exactly the extent of the level-t detail subbands.  Those
subbands (LH, HL, HH of every input channel, concatenated) pass through a 1x1
projection convolution and are concatenated channel-wise into the stage, then
a run of 3x3 stride-1 convolutions processes the widened features.  Because
each stage's output feeds all later stages, every level's spectral detail
reaches the end of the network.  The head is global average pooling, an
optional embedding layer, and a fully connected classifier.

Every convolution (down, proj, conv<b>) is one block: conv with padding k // 2,
then batch norm and ReLU as the one tape op `layers.batch_norm_relu`.
`_add_block` declares it into the one registry `Model.blocks`, which
`forward`, `Model.buffers` and `load_model` all walk.

The analysis filters are fixed and contribute zero trainable parameters;
`param_count` walks only the registered parameter variables, and the tests
recompute the totals from the configuration arithmetic independently.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import wavelet as W
from .schema import ConfigError, field_keys, from_items, parse_config_text, to_items
from .seeding import INIT, stream_rng
from .tensor import (DTYPES, ShapeError, as_array, decode, encode, parse_shape_fields,
                     shape_fields, tag)

DEFAULT_CHANNELS = (64, 128, 256, 512, 512)
MAX_LEVELS = 5


@dataclass(frozen=True)
class WaveletCnnConfig:
    """Architecture hyperparameters.

    `channels` defaults to the first `levels` entries of (64, 128, 256, 512,
    512); per-stage widths are a free choice of the architecture family, so
    they stay configurable and the parameter census is the conformance
    instrument.  `proj_fraction` sizes each projection shortcut relative to
    its receiving stage (rounded, at least one channel).  `embedding_dim` > 0
    inserts a fully connected layer (with ReLU) between global average
    pooling and the classifier.  `ablated` drops every subband injection and
    projection, leaving the plain lowpass-only backbone.  The batch-norm
    defaults are `BatchNormParams`'s.
    """

    levels: int = 5
    input_size: int = 224
    input_channels: int = 3
    channels: tuple[int, ...] = ()
    blocks_per_stage: int = 2
    num_classes: int = 1000
    head: str = "softmax"
    embedding_dim: int = 0
    proj_fraction: float = 0.25
    ablated: bool = False
    bn_epsilon: float = L.BatchNormParams.epsilon
    bn_momentum: float = L.BatchNormParams.momentum
    precision: str = "f32"
    init_seed: int = 0

    def resolved_channels(self) -> tuple[int, ...]:
        return self.channels if self.channels else DEFAULT_CHANNELS[: self.levels]

    def proj_width(self, stage_width: int) -> int:
        return max(1, int(stage_width * self.proj_fraction + 0.5))

    def validate(self) -> None:
        if not 2 <= self.levels <= MAX_LEVELS:
            raise ShapeError(f"levels must be in [2, {MAX_LEVELS}], got {self.levels}")
        W.check_divisible((self.input_size, self.input_size), self.levels)
        if self.input_channels not in (1, 3):
            raise ShapeError(f"input channels must be 1 or 3, got {self.input_channels}")
        sched = self.resolved_channels()
        if len(sched) != self.levels:
            raise ShapeError(
                f"channel schedule {sched} has {len(sched)} entries; "
                f"{self.levels} stages need one each"
            )
        if any(c < 1 for c in sched):
            raise ShapeError(f"channel schedule must be positive, got {sched}")
        if self.blocks_per_stage < 1:
            raise ShapeError("blocks_per_stage must be >= 1")
        if self.head not in ("softmax", "multilabel"):
            raise ShapeError(f"head must be 'softmax' or 'multilabel', got {self.head!r}")
        if self.num_classes < 2:
            raise ShapeError("num_classes must be >= 2")
        if not 0.0 < self.proj_fraction <= 1.0:
            raise ShapeError("proj_fraction must lie in (0, 1]")
        if self.precision not in DTYPES:
            raise ShapeError(f"precision must be one of {sorted(DTYPES)}")
        if self.embedding_dim < 0:
            raise ShapeError(f"embedding_dim must be >= 0, got {self.embedding_dim}")
        if self.init_seed < 0:
            raise ShapeError(f"seed must be >= 0, got {self.init_seed}")


@dataclass
class Model:
    config: WaveletCnnConfig
    params: dict[str, ad.Variable] = field(default_factory=dict)
    blocks: dict[str, tuple[L.Conv2dParams, L.BatchNormParams]] = field(default_factory=dict)
    injection_extents: dict[int, int] = field(default_factory=dict)

    @property
    def dtype(self) -> str:
        return self.config.precision

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for name, (_, bn) in self.blocks.items():
            out[f"{name}.bn.running_mean"] = bn.running_mean
            out[f"{name}.bn.running_var"] = bn.running_var
        return out


def _param(model: Model, name: str, value) -> ad.Variable:
    v = ad.Variable(as_array(value, model.dtype), requires_grad=True, name=name)
    model.params[name] = v
    return v


def _he_uniform(model: Model, rng, shape, fan_in: int, scale: float = 1.0):
    # He init, uniform variant: U(-b, b) with b = sqrt(6 / fan_in) has the
    # ReLU-calibrated variance 2/fan_in; `scale` damps it.  Drawn in the
    # target dtype; the f32 stream differs from cast f64 draws, but
    # determinism per (seed, precision) is what matters.
    dt = DTYPES[model.dtype]
    return (2 * rng.random(shape, dtype=dt) - 1) * dt(scale * np.sqrt(6.0 / fan_in))


def _add_block(model: Model, rng, name: str, in_ch: int, out_ch: int, k: int,
               stride: int = 1) -> None:
    """One conv (padding k // 2) followed by its batch norm `<name>.bn`."""
    w = _param(model, f"{name}.weight",
               _he_uniform(model, rng, (out_ch, in_ch, k, k), in_ch * k * k))
    b = _param(model, f"{name}.bias", np.zeros(out_ch))
    gamma = _param(model, f"{name}.bn.gamma", np.ones(out_ch))
    beta = _param(model, f"{name}.bn.beta", np.zeros(out_ch))
    cfg = model.config
    model.blocks[name] = (
        L.Conv2dParams(w, b, stride=stride, padding=k // 2),
        L.BatchNormParams(gamma, beta, epsilon=cfg.bn_epsilon, momentum=cfg.bn_momentum),
    )


def _add_fc(model: Model, rng, name: str, d_in: int, d_out: int, scale: float = 1.0) -> None:
    _param(model, f"{name}.weight", _he_uniform(model, rng, (d_in, d_out), d_in, scale))
    _param(model, f"{name}.bias", np.zeros(d_out))


def build(config: WaveletCnnConfig) -> Model:
    """Realize the layer graph: stage t's detail subbands arrive at extent input/2^t."""
    config.validate()
    model = Model(config=config)
    rng = stream_rng(config.init_seed, INIT)
    sched = config.resolved_channels()

    prev_ch = config.input_channels
    for t in range(1, config.levels + 1):
        out_ch = sched[t - 1]
        stage = f"stage{t}"
        _add_block(model, rng, f"{stage}.down", prev_ch, out_ch, 3, stride=2)
        width = out_ch
        if not config.ablated:
            model.injection_extents[t] = config.input_size >> t
            proj_ch = config.proj_width(out_ch)
            _add_block(model, rng, f"{stage}.proj", 3 * config.input_channels, proj_ch, 1)
            width = out_ch + proj_ch
        for b in range(1, config.blocks_per_stage + 1):
            _add_block(model, rng, f"{stage}.conv{b}", width, out_ch, 3)
            width = out_ch
        prev_ch = out_ch

    feat = sched[-1]
    if config.embedding_dim:
        _add_fc(model, rng, "head.embed", feat, config.embedding_dim)
        feat = config.embedding_dim
    # damped init for the classifier itself: logits start near zero, so the
    # first-batch loss sits at the uniform-prediction value log(C)
    _add_fc(model, rng, "head.fc", feat, config.num_classes, scale=0.1)
    return model


def _cbr(model: Model, h: ad.Variable, name: str, mode: str) -> ad.Variable:
    conv, bn = model.blocks[name]
    return L.batch_norm_relu(L.conv2d(h, conv), bn, mode)


def forward(model: Model, batch, mode: str = "eval") -> ad.Variable:
    """Run the network on an NCHW batch and return the logits Variable.

    Eval mode is deterministic and read-only; train mode normalizes with
    batch statistics and advances the running ones, which it never reads.
    """
    cfg = model.config
    x = batch if isinstance(batch, ad.Variable) else ad.Variable(batch)
    shape = x.value.shape
    expected = (cfg.input_channels, cfg.input_size, cfg.input_size)
    if len(shape) != 4 or shape[1:] != expected:
        raise ShapeError(f"batch shape {shape} does not match config {('N',) + expected}")
    if tag(x.value) != cfg.precision:
        raise ShapeError(f"batch dtype {tag(x.value)} != model precision {cfg.precision}")
    if mode not in ("train", "eval"):
        raise ShapeError(f"mode must be 'train' or 'eval', got {mode!r}")

    stacks = None
    if not cfg.ablated:
        stacks = W.decompose_variables(x, cfg.levels)

    h = x
    for t in range(1, cfg.levels + 1):
        stage = f"stage{t}"
        h = _cbr(model, h, f"{stage}.down", mode)
        if stacks is not None:
            proj = _cbr(model, stacks[t - 1], f"{stage}.proj", mode)
            h = ad.concat_channels([h, proj])
        for b in range(1, cfg.blocks_per_stage + 1):
            h = _cbr(model, h, f"{stage}.conv{b}", mode)

    g = L.global_average_pool(h)
    if cfg.embedding_dim:
        g = L.relu(L.fully_connected(g, model.params["head.embed.weight"],
                                     model.params["head.embed.bias"]))
    return L.fully_connected(g, model.params["head.fc.weight"], model.params["head.fc.bias"])


def param_count(model: Model) -> tuple[int, list[tuple[str, int]]]:
    """Exact trainable-scalar count with a per-layer breakdown.

    Layers are parameter-name prefixes (`stage1.down`, `stage1.down.bn`, ...);
    the fixed analysis filters never appear because they are not parameters.
    """
    by_layer: dict[str, int] = {}
    for name, v in model.params.items():
        layer = name.rsplit(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0) + v.value.size
    breakdown = list(by_layer.items())
    return sum(by_layer.values()), breakdown


def ablate_to_plain_cnn(config: WaveletCnnConfig) -> Model:
    """The lowpass-only baseline: same backbone, no subband injections."""
    return build(replace(config, ablated=True))


# --- checkpoint format "WCNN1" ------------------------------------------------
#
#   WCNN1 1
#   config <n>         followed by n canonical `key = value` lines
#   manifest <n>       followed by n `name kind dtype ndim d0 .. offset` lines
#   payload <bytes>    followed by raw little-endian scalars
#
# Parameters and running statistics round-trip bit-exactly at matching
# precision; loading into a narrower precision rounds to nearest.

_MAGIC = "WCNN1"
_VERSION = 1


class CheckpointError(ValueError):
    pass


class NonFiniteModelError(RuntimeError):
    """A parameter or buffer holds NaN or inf, so `save_model` writes nothing."""


def save_model(model: Model, path) -> None:
    entries: list[tuple[str, str, np.ndarray]] = []
    for name, v in model.params.items():
        entries.append((name, "param", v.value))
    for name, t in model.buffers().items():
        entries.append((name, "buffer", t))
    for name, kind, t in entries:
        if not np.all(np.isfinite(t)):
            raise NonFiniteModelError(f"{kind} {name!r} is not finite; checkpoint {path} "
                                      "not written")

    payload = io.BytesIO()
    manifest_lines = []
    for name, kind, t in entries:
        manifest_lines.append(f"{name} {kind} {shape_fields(t)} {payload.tell()}")
        payload.write(encode(t))
    blob = payload.getvalue()

    cfg_lines = [f"{k} = {v}" for k, v in to_items(model.config)]
    header = [f"{_MAGIC} {_VERSION}", f"config {len(cfg_lines)}", *cfg_lines,
              f"manifest {len(manifest_lines)}", *manifest_lines, f"payload {len(blob)}"]
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in header).encode("ascii"))
        fh.write(blob)


def load_model(path, precision: str | None = None) -> Model:
    """Rebuild a model from a checkpoint.

    `precision` overrides the stored one; narrowing f64 -> f32 rounds each
    scalar to the nearest representable value.  Any malformed header line,
    config value, manifest line or payload raises `CheckpointError`.
    """
    with open(path, "rb") as fh:
        def line() -> str:
            raw = fh.readline()
            if not raw.endswith(b"\n") or not raw.isascii():
                raise CheckpointError(f"{path}: truncated or non-ASCII header line {raw[:60]!r}")
            return raw[:-1].decode("ascii")

        def expect(tag) -> int:
            fields = line().split()
            if len(fields) != 2 or fields[0] != tag or not fields[1].isdecimal():
                raise CheckpointError(f"{path}: malformed {tag} header")
            return int(fields[1])

        head = line().split()
        if len(head) != 2 or head[0] != _MAGIC:
            raise CheckpointError(f"{path}: not a {_MAGIC} checkpoint")
        if head[1] != str(_VERSION):
            raise CheckpointError(f"{path}: unsupported version {head[1]}")
        cfg_text = "\n".join(line() for _ in range(expect("config")))
        manifest = [line().split() for _ in range(expect("manifest"))]
        nbytes = expect("payload")
        blob = fh.read()
    if len(blob) != nbytes:
        raise CheckpointError(f"{path}: payload is {len(blob)} bytes, expected {nbytes}")

    try:
        items = parse_config_text(cfg_text, "config block")
        # checkpoints written while the wavelet was a config field carry `wavelet = haar`
        wavelet = items.pop("wavelet", "haar")
        if wavelet != "haar":
            raise CheckpointError(f"{path}: stored wavelet {wavelet!r}; only Haar is supported")
        keys = field_keys(WaveletCnnConfig, "")
        if set(items) != set(keys.values()):
            raise CheckpointError(f"{path}: config block keys are not the config fields")
        config = from_items(WaveletCnnConfig, items, keys)
        if precision is not None:
            config = replace(config, precision=precision)
        model = build(config)
        stored = {}
        for parts in manifest:
            # name kind <dtype> <ndim> <d0> ... offset
            if len(parts) < 5 or not parts[-1].isdecimal():
                raise CheckpointError(f"{path}: malformed manifest line {' '.join(parts)!r}")
            dtype, shape = parse_shape_fields(parts[2:-1])
            stored[parts[0]] = decode(blob, dtype, shape, int(parts[-1]))
    except (ConfigError, ShapeError) as e:
        raise CheckpointError(f"{path}: {e}") from None

    def restore(name: str, like: np.ndarray) -> np.ndarray:
        if name not in stored:
            raise CheckpointError(f"{path}: missing {name}")
        arr = stored[name]
        if arr.shape != like.shape:
            raise CheckpointError(f"{path}: {name} has shape {arr.shape}, expected {like.shape}")
        return arr.astype(DTYPES[config.precision], copy=False)

    for name, v in model.params.items():
        v.value = restore(name, v.value)
    for name, (_, bn) in model.blocks.items():
        bn.running_mean = restore(f"{name}.bn.running_mean", bn.running_mean)
        bn.running_var = restore(f"{name}.bn.running_var", bn.running_var)
    return model
