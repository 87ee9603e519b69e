"""Training recipe: Adam, contrast normalization, augmentation, epoch loop.

Preprocessing runs per batch: (optional) bilinear resize, one call per
source shape, then each image's random crop and random horizontal flip,
stacked; then global contrast normalization of the whole batch, each image
by its own statistics.  The resize target defaults to input_size * 256 //
224, mirroring the full-scale 256 -> 224 recipe at any desk scale.

Adam's hyperparameters and their defaults are `TrainConfig`'s; they are
echoed in every report header.  `adam_step` updates in place: the small
parameters as one flat block per dtype, a large one by row ranges on the
conv pool (`layers._over_ranges`).  All
randomness flows from the single seed through per-(epoch, sample) streams,
so runs are reproducible independent of batch size.  Two identical 64-bit
runs produce bit-identical checkpoints when BLAS runs the same number of
threads in both, on any number of CPUs (see the README's determinism
contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import metrics as X
from . import model as M
from .data import MAX_SYNTH_SIZE, ImageRecord
from .seeding import AUGMENT, SHUFFLE, stream_rng
from .tensor import ShapeError, as_array


class NonFiniteGradientError(RuntimeError):
    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient for parameter {param_name!r}; step aborted")
        self.param_name = param_name


class NonFiniteLossError(RuntimeError):
    pass


# --- configuration ------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay_every: int = 0  # 0 = constant schedule
    lr_decay_factor: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    augment: bool = True
    resize_to: int = 0  # 0 = input_size * 256 // 224
    flip: bool = True
    eval_every: int = 1
    checkpoint_path: str | None = None

    def validate(self):
        if self.epochs < 1:
            raise ShapeError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ShapeError("batch size must be >= 2 while batch norm trains")
        if self.lr <= 0:
            raise ShapeError("learning rate must be positive")
        if self.eval_every < 1:
            raise ShapeError("eval_every must be >= 1")
        if self.lr_decay_every < 0 or not 0 < self.lr_decay_factor <= 1:
            raise ShapeError("lr decay needs every >= 0 and factor in (0, 1]")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ShapeError("Adam beta1 and beta2 must lie in [0, 1)")
        if self.adam_epsilon <= 0:
            raise ShapeError("Adam epsilon must be positive")
        if self.seed < 0:
            raise ShapeError(f"seed must be >= 0, got {self.seed}")

    def resolved_resize(self, input_size: int) -> int:
        """The augmentation's resize target, resize_to if set, else the
        default; either must lie in [input_size, MAX_SYNTH_SIZE], so the crop
        fits and the resize stays bounded."""
        target = self.resize_to or input_size * 256 // 224
        if not input_size <= target <= MAX_SYNTH_SIZE:
            raise ShapeError(f"resize_to must be 0 or in [{input_size}, {MAX_SYNTH_SIZE}], "
                             f"got {self.resize_to} (target {target})")
        return target

    def lr_at(self, epoch: int) -> float:
        """Constant by default; optional step decay every `lr_decay_every` epochs."""
        if not self.lr_decay_every:
            return self.lr
        return self.lr * self.lr_decay_factor ** (epoch // self.lr_decay_every)


# --- Adam ---------------------------------------------------------------------

# elements; two ranges lost to hand-off up to about 1.5e5, tied near 3e5, won 1.2-1.5x from 6e5
_SPLIT_ADAM = 2**19
# elements per block, by the 224-px model's Adam step: 2**16 took 83-93 ms split, 2**14 took
# 190-220 ms (the small calls of two ranges contend for the GIL), whole arrays 97-127 ms
_ADAM_BLOCK = 2**16


@dataclass
class AdamState:
    """Adam's hyperparameters, step count and moments; the defaults are `TrainConfig`'s.

    The moments of the parameters in a dtype's flat block (see `adam_step`)
    are views into one flat array per moment, held with the block's names in
    `flat`."""

    lr: float = TrainConfig.lr
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    epsilon: float = TrainConfig.adam_epsilon
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    flat: dict[np.dtype, tuple[tuple[str, ...], np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False)


def _adam_update(p, g, m, v, s1, s2, b1, b2, c1, c2, lr, eps) -> None:
    """Adam on one block of elements, in place on p, m and v, operation for
    operation as m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/c1) / (sqrt(v/c2) + eps) evaluates, through two scratch
    buffers s1 and s2 of the block's shape."""
    m *= b1
    np.multiply(1 - b1, g, out=s1)
    m += s1
    v *= b2
    np.multiply(1 - b2, g, out=s1)
    s1 *= g
    v += s1
    np.divide(m, c1, out=s1)
    np.multiply(lr, s1, out=s1)
    np.divide(v, c2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += eps
    s1 /= s2
    p -= s1


def _flat_moments(state: AdamState, params: dict[str, ad.Variable], names: tuple[str, ...],
                  dt: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The flat (m, v) of dtype dt's block, which holds `names` in this order.
    A block held for other names is rebuilt, and every moment the state
    has moves into the new block; the others start at zero."""
    block = state.flat.get(dt)
    if block is None or block[0] != names:
        size = sum(params[n].value.size for n in names)
        block = (names, np.zeros(size, dt), np.zeros(size, dt))
        for moments, flat in ((state.m, block[1]), (state.v, block[2])):
            at = 0
            for n in names:
                value = params[n].value
                part = flat[at:at + value.size]
                if n in moments:
                    part[:] = moments[n].ravel()
                moments[n] = part.reshape(value.shape)
                at += value.size
        state.flat[dt] = block
    return block[1], block[2]


def adam_step(params: dict[str, ad.Variable], state: AdamState) -> None:
    """One bias-corrected moment update, in place on the parameter values and moments.

    A parameter whose `.grad` is unset counts as having a zero gradient: its
    moments decay, and its value still moves by the decaying first moment.
    Only from a fresh state (zero moments) does such a step leave it put.
    Any non-finite gradient aborts the step before touching anything, naming
    the first offending parameter in dict order.

    The arithmetic is elementwise, so any split of the elements keeps the
    bits.  The parameters of at most `_ADAM_BLOCK` elements form one flat
    block per dtype: their gradients and values are gathered into one array
    each, updated by one call and the values written back, and their moments
    live in the state's flat arrays.  A larger parameter is walked in blocks
    of leading-axis rows, with two scratch buffers per range, and from
    `_SPLIT_ADAM` elements on its rows split into one range per CPU on the
    conv pool.  Nothing but the moments outlives the step.
    """
    grads = {name: np.zeros_like(p.value) if p.grad is None else p.grad
             for name, p in params.items()}
    small: dict[np.dtype, list[str]] = {}
    large = []
    for name, p in params.items():
        if p.value.size <= _ADAM_BLOCK:
            small.setdefault(p.value.dtype, []).append(name)
        else:
            large.append(name)
    flat_grads = {dt: np.concatenate([grads[n].ravel() for n in names])
                  for dt, names in small.items()}
    if not all(np.isfinite(g).all() for g in [*flat_grads.values(), *map(grads.get, large)]):
        raise NonFiniteGradientError(next(n for n, g in grads.items() if not np.isfinite(g).all()))

    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    correct1 = 1.0 - b1**t
    correct2 = 1.0 - b2**t

    def hyper(dt):
        return b1, b2, correct1, correct2, dt.type(state.lr), dt.type(state.epsilon)

    for dt, names in small.items():
        m, v = _flat_moments(state, params, tuple(names), dt)
        values = [params[n].value for n in names]
        pv = np.concatenate([a.ravel() for a in values])
        _adam_update(pv, flat_grads[dt], m, v, np.empty_like(pv), np.empty_like(pv), *hyper(dt))
        at = 0
        for a in values:
            a[...] = pv[at:at + a.size].reshape(a.shape)
            at += a.size

    for name in large:
        pv, g = params[name].value, grads[name]
        if name not in state.m:
            # np.zeros takes pages the allocator already zeroed; zeros_like writes every one
            state.m[name] = np.zeros(pv.shape, pv.dtype)
            state.v[name] = np.zeros(pv.shape, pv.dtype)
        m, v, h = state.m[name], state.v[name], hyper(pv.dtype)
        block = max(1, _ADAM_BLOCK * len(pv) // pv.size)  # rows

        def update(lo, hi):
            s1 = np.empty((min(block, hi - lo), *pv.shape[1:]), pv.dtype)
            s2 = np.empty_like(s1)
            for at in range(lo, hi, block):
                end = min(at + block, hi)
                _adam_update(pv[at:end], g[at:end], m[at:end], v[at:end],
                             s1[:end - at], s2[:end - at], *h)

        L._over_ranges(len(pv), update, pv.size >= _SPLIT_ADAM)


# --- preprocessing -------------------------------------------------------------


def global_contrast_normalization(images: np.ndarray) -> np.ndarray:
    """Per-image standardization of a stacked batch [n, ...]: subtract each
    image's mean, divide by its deviation, in f64.

    The deviation is floored at 1e-8 so constant images map to zeros.  Each
    image is reduced as one contiguous row, so its bits are those of the same
    expression on a contiguous copy of that image alone.
    """
    images = np.ascontiguousarray(images, dtype=np.float64)
    if images.ndim < 2 or images.size == 0:
        raise ShapeError(f"cannot normalize a batch of shape {images.shape}")
    rows = images.reshape(len(images), -1)
    mean = rows.mean(axis=1, keepdims=True)
    dev = np.maximum(rows.std(axis=1, keepdims=True), 1e-8)
    return ((rows - mean) / dev).reshape(images.shape)


def bilinear_resize(images: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of the last two axes of [..., h, w] (pixel-center mapping)."""
    h, w = images.shape[-2:]
    if out_h < 1 or out_w < 1:
        raise ShapeError("resize target must be positive")
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)
    y0, y1 = y0[:, None], y1[:, None]  # one gather of rows and columns per corner
    top = images[..., y0, x0] * (1 - wx) + images[..., y0, x1] * wx
    bottom = images[..., y1, x0] * (1 - wx) + images[..., y1, x1] * wx
    return top * (1 - wy) + bottom * wy


def augment(images: list[np.ndarray], rngs: list[np.random.Generator], resize_to: int,
            crop_to: int, flip: bool) -> np.ndarray:
    """Resize, uniformly random crop, and coin-flip horizontal mirror of a batch
    of [c, h, w] images; the crops come back stacked [n, c, crop_to, crop_to].

    The batch is resized by `_stacked`, one call per source shape.  Image i
    draws from its own stream rngs[i], in a fixed order (row offset, column
    offset, flip), so streams are part of the reproducibility contract.
    Crop offsets cover [0, resize-crop] inclusive.
    """
    if crop_to > resize_to:
        raise ShapeError(f"crop {crop_to} larger than resize target {resize_to}")
    if any(min(image.shape[1:]) < 2 for image in images):
        raise ShapeError("augment needs at least a 2x2 image")
    resized = _stacked(images, resize_to)
    out = np.empty((*resized.shape[:2], crop_to, crop_to))
    for i, rng in enumerate(rngs):
        oy = int(rng.integers(0, resize_to - crop_to + 1))
        ox = int(rng.integers(0, resize_to - crop_to + 1))
        crop = resized[i, :, oy:oy + crop_to, ox:ox + crop_to]
        out[i] = crop[:, :, ::-1] if flip and rng.random() < 0.5 else crop
    return out


def _stacked(images: list[np.ndarray], size: int) -> np.ndarray:
    """The [c, h, w] images as one [n, c, size, size] batch; those of another
    size are resized, by one call per source shape."""
    groups: dict[tuple, list[int]] = {}
    for i, image in enumerate(images):
        groups.setdefault(image.shape, []).append(i)
    out = np.empty((len(images), images[0].shape[0], size, size))
    for shape, idx in groups.items():
        group = np.stack([images[i] for i in idx])
        out[idx] = group if shape[1:] == (size, size) else bilinear_resize(group, size, size)
    return out


# --- training loop --------------------------------------------------------------


@dataclass
class TrainReport:
    header: dict[str, str]
    rows: list[tuple[int, str, float, float]] = field(default_factory=list)
    best_epoch: int = -1
    best_test_acc: float = float("nan")
    final_train_loss: float = float("nan")
    loss_monotone_after_warmup: bool = True

    def to_text(self) -> str:
        lines = ["# training report"]
        for k in sorted(self.header):
            lines.append(f"# {k} = {self.header[k]}")
        lines.append("epoch\tsplit\tloss\tacc")
        for epoch, split, loss, acc in self.rows:
            loss_field = f"{loss:.6f}" if np.isfinite(loss) else "n/a"
            lines.append(f"{epoch}\t{split}\t{loss_field}\t{acc:.2f}")
        lines.append("# summary")
        lines.append(f"# best_epoch = {self.best_epoch}")
        lines.append(f"# best_test_acc = {self.best_test_acc:.2f}")
        lines.append(f"# final_train_loss = {self.final_train_loss:.6f}")
        lines.append(f"# loss_monotone_after_warmup = {self.loss_monotone_after_warmup}")
        return "\n".join(lines) + "\n"


def _targets(records: list[ImageRecord], head: str, num_classes: int):
    if head == "softmax":
        for r in records:
            if len(r.labels) != 1:
                raise ShapeError(
                    f"softmax head needs exactly one label per image, {r.path!r} has {len(r.labels)}"
                )
        return np.array([r.labels[0] for r in records], dtype=np.int64)
    targets = np.zeros((len(records), num_classes))
    for i, r in enumerate(records):
        targets[i, list(r.labels)] = 1.0
    return targets


def iter_batches(order, batch_size):
    """Consecutive batches; a 1-image tail joins the one before (batch norm cannot train on it)."""
    ends = [*range(batch_size, len(order) - 1, batch_size), len(order)]
    return (order[at:end] for at, end in zip([0, *ends], ends))


# AdamState field -> the TrainConfig field that sets it
_ADAM_FIELDS = {"lr": "lr", "beta1": "beta1", "beta2": "beta2", "epsilon": "adam_epsilon"}


def train(model: M.Model, train_records: list[ImageRecord],
          eval_records: list[ImageRecord], cfg: TrainConfig) -> TrainReport:
    """Run the epoch loop; returns the report and (optionally) saves the best
    checkpoint by test accuracy.

    Each call starts Adam afresh, at step 1 with zero moments: a model trained
    over several calls restarts its optimizer at each one.  Raises
    NonFiniteLossError with a batch diagnostic if the loss diverges.
    """
    cfg.validate()
    if not train_records:
        raise ShapeError("training set is empty")
    mcfg = model.config
    input_size = mcfg.input_size
    head, classes = mcfg.head, mcfg.num_classes
    resize_to = cfg.resolved_resize(input_size)

    state = AdamState(**{name: getattr(cfg, field) for name, field in _ADAM_FIELDS.items()})
    header = {
        **{f"adam.{name}": str(getattr(state, name)) for name in _ADAM_FIELDS},
        "lr_schedule": ("constant" if not cfg.lr_decay_every else
                        f"step(every={cfg.lr_decay_every}, factor={cfg.lr_decay_factor})"),
        "augment": str(cfg.augment), "batch_size": str(cfg.batch_size),
        "epochs": str(cfg.epochs), "eval_every": str(cfg.eval_every),
        "precision": mcfg.precision, "seed": str(cfg.seed),
        "resize_to": str(resize_to),
        "train_images": str(len(train_records)),
        "eval_images": str(len(eval_records)),
    }
    report = TrainReport(header=header)
    targets = _targets(train_records, head, classes)

    best_acc = -1.0
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        state.lr = cfg.lr_at(epoch)
        order = stream_rng(cfg.seed, SHUFFLE, epoch).permutation(len(train_records))
        losses, correct, seen = [], 0, 0
        for batch_idx in iter_batches(order, cfg.batch_size):
            pixels = [train_records[i].pixels for i in batch_idx]
            if cfg.augment:
                rngs = [stream_rng(cfg.seed, AUGMENT, epoch, int(i)) for i in batch_idx]
                images = augment(pixels, rngs, resize_to, input_size, cfg.flip)
            else:
                images = _stacked(pixels, input_size)
            batch = as_array(global_contrast_normalization(images), mcfg.precision)
            logits = M.forward(model, batch, mode="train")
            batch_targets = targets[batch_idx]
            if head == "softmax":
                loss = L.softmax_cross_entropy(logits, batch_targets)
            else:
                loss = L.sigmoid_bce_multilabel(logits, batch_targets)
            loss_value = loss.value.item()
            if not np.isfinite(loss_value):
                raise NonFiniteLossError(
                    f"non-finite loss {loss_value} at epoch {epoch}, "
                    f"batch starting with {train_records[batch_idx[0]].path!r}"
                )
            ad.backward(loss)
            adam_step(model.params, state)
            for p in model.params.values():
                p.grad = None
            losses.append(loss_value)
            if head == "softmax":
                correct += int((logits.value.argmax(axis=1) == batch_targets).sum())
                seen += len(batch_idx)
            del logits, loss  # the graph's activations, freed before the next forward

        train_loss = float(np.mean(losses)) if losses else float("nan")
        train_acc = 100.0 * correct / seen if seen else float("nan")
        epoch_losses.append(train_loss)
        report.rows.append((epoch, "train", train_loss, train_acc))

        if eval_records and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1):
            result = evaluate(model, eval_records, batch_size=cfg.batch_size)
            test_acc = result["accuracy"]
            report.rows.append((epoch, "test", float("nan"), test_acc))
            if test_acc > best_acc:
                best_acc = test_acc
                report.best_epoch = epoch
                report.best_test_acc = test_acc
                if cfg.checkpoint_path:
                    M.save_model(model, cfg.checkpoint_path)

    report.final_train_loss = epoch_losses[-1]
    # trend check with stochasticity allowance: after the 3-epoch warmup, an
    # epoch average may wobble but not exceed twice the best average so far
    # (plus a small absolute slack for near-zero losses)
    best_seen = min(epoch_losses[:4], default=float("inf"))
    for cur in epoch_losses[4:]:
        if cur > 2.0 * best_seen + 0.05:
            report.loss_monotone_after_warmup = False
            break
        best_seen = min(best_seen, cur)
    return report


def evaluate(model: M.Model, records: list[ImageRecord], batch_size: int = 32) -> dict:
    """Eval-mode metrics: accuracy for softmax heads, plus the multi-label
    bundle (threshold 0.5) for multilabel heads.  The truth is encoded, and
    checked against the head, by `_targets`, as in training.  The forwards
    are eval-mode `model.forward`s: untaped, each batch norm folded into its
    conv."""
    if not records:
        raise ShapeError("evaluation set is empty")
    mcfg = model.config
    truth = _targets(records, mcfg.head, mcfg.num_classes)
    outputs = []
    for at in range(0, len(records), batch_size):
        chunk = records[at:at + batch_size]
        images = _stacked([r.pixels for r in chunk], mcfg.input_size)
        batch = as_array(global_contrast_normalization(images), mcfg.precision)
        outputs.append(M.forward(model, batch, mode="eval").value)
    logits = np.concatenate(outputs, axis=0)

    if mcfg.head == "softmax":
        return {"accuracy": X.accuracy(logits.argmax(axis=1), truth)}

    predicted, truth = logits > 0, truth > 0  # sigmoid > 0.5
    bundle = X.multilabel_bundle(predicted, truth)
    exact = (predicted == truth).all(axis=1)
    bundle["accuracy"] = 100.0 * int(exact.sum()) / len(records)
    return bundle
