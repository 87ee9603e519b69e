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
then batch norm and ReLU.  The conv has no bias, which the batch norm's mean
subtraction would cancel; beta is the block's shift.  `_add_block` declares
each block into the one registry `Model.blocks`, which `forward`,
`Model.buffers` and `load_model` all walk.
A stage's down and proj blocks write their outputs into the channels of one
stage buffer, so its concatenation copies nothing.  Train mode runs a block
as the tape ops `layers.conv2d` and `layers.batch_norm_relu`.  Eval mode is
inference: the forward runs under `autodiff.no_grad()`, whatever the caller's
context, and folds each batch norm into its conv's weights and a
per-channel shift, so a block is one conv, the shift and an in-place ReLU.

The analysis filters are fixed and contribute zero trainable parameters;
`param_count` walks only the registered parameter variables, and the tests
recompute the totals from the configuration arithmetic independently.
"""

from __future__ import annotations

import io
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import wavelet as W
from .schema import ConfigError, field_keys, from_items, parse_config_text, to_items
from .seeding import INIT, stream_rng
from .tensor import (DTYPES, ShapeError, as_array, decode, encode, parse_shape_fields,
                     shape_fields, tag, write_atomic)

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


def _he_uniform(rng, dt, shape, fan_in: int, scale: float):
    # He init, uniform variant: U(-b, b) with b = sqrt(6 / fan_in) has the
    # ReLU-calibrated variance 2/fan_in; `scale` damps it.  Drawn in the
    # target dtype; the f32 stream differs from cast f64 draws, but
    # determinism per (seed, precision) is what matters.
    return (2 * rng.random(shape, dtype=dt) - 1) * dt(scale * np.sqrt(6.0 / fan_in))


def _add_block(model: Model, weight, name: str, in_ch: int, out_ch: int, k: int,
               stride: int = 1) -> None:
    """One conv (padding k // 2, no bias) followed by its batch norm `<name>.bn`."""
    w = _param(model, f"{name}.weight", weight((out_ch, in_ch, k, k), in_ch * k * k, 1.0))
    gamma = _param(model, f"{name}.bn.gamma", np.ones(out_ch))
    beta = _param(model, f"{name}.bn.beta", np.zeros(out_ch))
    cfg = model.config
    model.blocks[name] = (L.Conv2dParams(w, stride), L.BatchNormParams(
        gamma, beta, epsilon=cfg.bn_epsilon, momentum=cfg.bn_momentum))


def _add_fc(model: Model, weight, name: str, d_in: int, d_out: int, scale: float = 1.0) -> None:
    _param(model, f"{name}.weight", weight((d_in, d_out), d_in, scale))
    _param(model, f"{name}.bias", np.zeros(d_out))


def _layers(config: WaveletCnnConfig, weight) -> Model:
    """The layer graph of a valid `config`: stage t's detail subbands arrive
    at extent input/2^t.  `weight(shape, fan_in, scale)` supplies each weight
    array, in declaration order; FC biases and betas start at 0, gammas at 1."""
    model = Model(config=config)
    sched = config.resolved_channels()

    prev_ch = config.input_channels
    for t in range(1, config.levels + 1):
        out_ch = sched[t - 1]
        stage = f"stage{t}"
        _add_block(model, weight, f"{stage}.down", prev_ch, out_ch, 3, stride=2)
        width = out_ch
        if not config.ablated:
            model.injection_extents[t] = config.input_size >> t
            proj_ch = config.proj_width(out_ch)
            _add_block(model, weight, f"{stage}.proj", 3 * config.input_channels, proj_ch, 1)
            width = out_ch + proj_ch
        for b in range(1, config.blocks_per_stage + 1):
            _add_block(model, weight, f"{stage}.conv{b}", width, out_ch, 3)
            width = out_ch
        prev_ch = out_ch

    feat = sched[-1]
    if config.embedding_dim:
        _add_fc(model, weight, "head.embed", feat, config.embedding_dim)
        feat = config.embedding_dim
    # damped init for the classifier itself: logits start near zero, so the
    # first-batch loss sits at the uniform-prediction value log(C)
    _add_fc(model, weight, "head.fc", feat, config.num_classes, scale=0.1)
    return model


def build(config: WaveletCnnConfig) -> Model:
    """Realize the layer graph, its weights He-uniform draws from the INIT stream."""
    config.validate()
    return _layers(config, partial(_he_uniform, stream_rng(config.init_seed, INIT),
                                   DTYPES[config.precision]))


def _cbr(model: Model, h: ad.Variable, name: str, mode: str, out=None) -> ad.Variable:
    conv, bn = model.blocks[name]
    if mode == "train":
        return L.batch_norm_relu(L.conv2d(h, conv), bn, out)
    # the batch norm folded into the conv (Ioffe & Szegedy, arXiv:1502.03167),
    # w' = w * s with s = gamma / sqrt(var + eps), rebuilt on every call; the
    # shift beta - mean * s goes into the conv's own output, then the ReLU
    # writes `out` (a channel slice, slower to update in place) or y
    s = bn.gamma.value / np.sqrt(bn.running_var + bn.epsilon)
    w = ad.Variable(conv.weight.value * s[:, None, None, None])
    y = L.conv2d(h, L.Conv2dParams(w, conv.stride)).value
    y += (bn.beta.value - bn.running_mean * s)[:, None, None]
    return ad.Variable(np.maximum(y, 0, out=y if out is None else out))


def forward(model: Model, batch, mode: str = "eval") -> ad.Variable:
    """Run the network on an NCHW batch and return the logits Variable.

    Train mode normalizes with batch statistics and advances the running
    ones, which it never reads.  Eval mode is deterministic and read-only:
    it runs untaped (`autodiff.no_grad()`) in any context, each block's batch
    norm folded into its conv, so its logits have no parents and no closure.
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

    with ad.no_grad() if mode == "eval" else nullcontext():
        stacks = None
        if not cfg.ablated:
            stacks = W.decompose_variables(x, cfg.levels)

        h = x
        for t, c in enumerate(cfg.resolved_channels(), 1):
            stage = f"stage{t}"
            if stacks is None:
                h = _cbr(model, h, f"{stage}.down", mode)
            else:  # down and proj write their channels of one stage buffer, the concat's value
                extent = cfg.input_size >> t
                buf = np.empty((shape[0], c + cfg.proj_width(c), extent, extent), x.value.dtype)
                h = ad.concat_channels([_cbr(model, h, f"{stage}.down", mode, buf[:, :c]),
                                        _cbr(model, stacks[t - 1], f"{stage}.proj", mode,
                                             buf[:, c:])])
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
# Parameters and running statistics round-trip bit-exactly.

_MAGIC = "WCNN1"
_VERSION = 1


class CheckpointError(ValueError):
    pass


class NonFiniteModelError(RuntimeError):
    """A parameter or buffer holds NaN or inf, so `save_model` writes nothing."""


def save_model(model: Model, path) -> None:
    """Write a WCNN1 checkpoint atomically (`tensor.write_atomic`), so a
    failed write leaves any earlier file whole."""
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
    write_atomic(path, "".join(line + "\n" for line in header).encode("ascii"), blob)


def load_model(path) -> Model:
    """Rebuild a model from a checkpoint.

    Any malformed header line, config value, manifest line or payload raises
    `CheckpointError`, and so does a value `save_model` would not have
    written: an array whose shape or dtype is not the config's, a non-finite
    parameter or buffer, a negative running variance, or a manifest name
    that is given twice or that the config does not declare.  A file written
    while blocks had a conv bias loads with each block's bias folded into its
    running mean (rm - b), which gives the same eval logits up to rounding.
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
        config.validate()
        # every array is restored below, so nothing is drawn
        model = _layers(config, lambda shape, *_: np.empty(shape, DTYPES[config.precision]))
        stored = {}
        for parts in manifest:
            # name kind <dtype> <ndim> <d0> ... offset
            if len(parts) < 5 or not parts[-1].isdecimal():
                raise CheckpointError(f"{path}: malformed manifest line {' '.join(parts)!r}")
            dtype, shape = parse_shape_fields(parts[2:-1])
            if parts[0] in stored:
                raise CheckpointError(f"{path}: {parts[0]} appears twice in the manifest")
            stored[parts[0]] = decode(blob, dtype, shape, int(parts[-1]))
    except (ConfigError, ShapeError) as e:
        raise CheckpointError(f"{path}: {e}") from None

    def restore(name: str, like: np.ndarray) -> np.ndarray:
        if name not in stored:
            raise CheckpointError(f"{path}: missing {name}")
        arr = stored.pop(name)
        if arr.shape != like.shape or arr.dtype != like.dtype:
            raise CheckpointError(f"{path}: {name} is {tag(arr)}{list(arr.shape)}, "
                                  f"expected {tag(like)}{list(like.shape)}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: {name} is not finite")
        return arr

    for name, v in model.params.items():
        v.value = restore(name, v.value)
    for name, (_, bn) in model.blocks.items():
        bn.running_mean = restore(f"{name}.bn.running_mean", bn.running_mean)
        bn.running_var = restore(f"{name}.bn.running_var", bn.running_var)
        if np.any(bn.running_var < 0):
            raise CheckpointError(f"{path}: {name}.bn.running_var is negative")
        if f"{name}.bias" in stored:  # a legacy conv bias b: (y + b) - rm = y - (rm - b)
            bn.running_mean = bn.running_mean - restore(f"{name}.bias", bn.running_mean)
    if stored:
        raise CheckpointError(f"{path}: the config declares no {', '.join(sorted(stored))}")
    return model
