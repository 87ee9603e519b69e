"""Finite-difference verification sweeps over every layer and the whole model.

Each check mirrors the analytic backward pass of one operation against
central differences at 64-bit.  The model check differentiates the training
loss with respect to the input image (every coordinate) and with respect to a
sampled subset of coordinates of every parameter tensor.  Train-mode batch
norm advances running statistics it never reads, so every probe is the same
pure function of its input.  Every check takes central differences with the
step `EPS`.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import model as M
from . import wavelet as W
from .tensor import Tensor

EPS = 1e-5


def _v(arr, requires_grad=False):
    return ad.Variable(Tensor(np.asarray(arr, dtype=np.float64)), requires_grad=requires_grad)


def _weigh(out, r):
    return ad.total(ad.mul(out, _v(r)))


def layer_checks() -> list[tuple[str, float]]:
    """Per-operation finite-difference errors on fixed seeded fixtures."""
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((2, 3, 8, 8))
    w3 = rng.standard_normal((4, 3, 3, 3))
    w1 = rng.standard_normal((4, 3, 1, 1))
    bias = rng.standard_normal(4)
    r_conv = rng.standard_normal((2, 4, 8, 8))
    r_half = rng.standard_normal((2, 4, 4, 4))
    r_pool = rng.standard_normal((2, 3, 4, 4))
    r_like = rng.standard_normal(x.shape)
    gamma = rng.standard_normal(3) + 1.5
    beta = rng.standard_normal(3)
    fc_x = rng.standard_normal((3, 6))
    fc_w = rng.standard_normal((6, 4))
    fc_b = rng.standard_normal(4)
    r_fc = rng.standard_normal((3, 4))
    r_gap = rng.standard_normal((2, 3))
    labels = rng.integers(0, 4, size=3)
    targets = (rng.random((3, 4)) > 0.5).astype(float)
    x_odd = x[:, :, 1:, :7].copy()

    def conv(stride, padding, weight, kind, inp=x):
        def f(v):
            parts = {"x": _v(inp), "w": _v(weight), "b": _v(bias)}
            parts[kind] = v
            p = L.Conv2dParams(parts["w"], parts["b"], stride=stride, padding=padding)
            out = L.conv2d(parts["x"], p)
            return _weigh(out, r_conv if stride == 1 else r_half)
        return f

    def bn(kind, mode):
        def f(v):
            parts = {"x": _v(x), "g": _v(gamma), "b": _v(beta)}
            parts[kind] = v
            p = L.BatchNormParams(parts["g"], parts["b"])
            out = L.batch_norm(parts["x"], p, mode)
            return _weigh(out, r_like)
        return f

    def fc(kind):
        def f(v):
            parts = {"x": _v(fc_x), "w": _v(fc_w), "b": _v(fc_b)}
            parts[kind] = v
            return _weigh(L.fully_connected(parts["x"], parts["w"], parts["b"]), r_fc)
        return f

    def decompose_loss(v):
        loss = None
        for s in W.decompose_variables(v, 2):
            term = ad.total(ad.mul(s, s))
            loss = term if loss is None else ad.add(loss, term)
        return loss

    relu_x = np.where(np.abs(x) < 0.1, 0.5, x)
    checks = [
        ("conv2d/x", conv(1, 1, w3, "x"), x),
        ("conv2d/weight", conv(1, 1, w3, "w"), w3),
        ("conv2d/bias", conv(1, 1, w3, "b"), bias),
        ("conv2d-stride2/x", conv(2, 1, w3, "x"), x),
        ("conv2d-stride2/weight", conv(2, 1, w3, "w"), w3),
        ("conv2d-stride2/bias", conv(2, 1, w3, "b"), bias),
        ("conv2d-stride2-odd/x", conv(2, 1, w3, "x", x_odd), x_odd),
        ("conv2d-1x1/x", conv(1, 0, w1, "x"), x),
        ("conv2d-1x1/weight", conv(1, 0, w1, "w"), w1),
        ("average_pool/x", lambda v: _weigh(L.average_pool(v, 2), r_pool), x),
        ("relu/x", lambda v: _weigh(L.relu(v), r_like), relu_x),
        ("batch_norm-train/x", bn("x", "train"), x),
        ("batch_norm-train/gamma", bn("g", "train"), gamma),
        ("batch_norm-train/beta", bn("b", "train"), beta),
        ("batch_norm-eval/x", bn("x", "eval"), x),
        ("global_average_pool/x",
         lambda v: _weigh(L.global_average_pool(v), r_gap), x),
        ("fully_connected/x", fc("x"), fc_x),
        ("fully_connected/weight", fc("w"), fc_w),
        ("fully_connected/bias", fc("b"), fc_b),
        ("softmax_cross_entropy/logits",
         lambda v: L.softmax_cross_entropy(v, labels), fc_x[:, :4]),
        ("sigmoid_bce/logits",
         lambda v: L.sigmoid_bce_multilabel(v, targets), fc_x[:, :4]),
        ("wavelet_decompose/x", decompose_loss, rng.standard_normal((1, 1, 8, 8))),
    ]
    return [
        (name, ad.finite_difference_check(f, Tensor(probe), eps=EPS))
        for name, f, probe in checks
    ]


def default_check_config() -> M.WaveletCnnConfig:
    return M.WaveletCnnConfig(levels=2, input_size=32, input_channels=1,
                              channels=(4, 6), blocks_per_stage=1, num_classes=3,
                              precision="f64", init_seed=7)


def model_checks(config: M.WaveletCnnConfig | None = None, *, input_stride: int,
                 coords_per_param: int) -> list[tuple[str, float]]:
    """End-to-end loss gradients: every `input_stride`-th input coordinate and
    a seeded sample of up to `coords_per_param` coordinates of every parameter
    tensor.  `config` defaults to `default_check_config()`.

    The probed scalar is the classification loss plus a fixed random linear
    functional of the logits; the extra term flows through the identical
    network paths but keeps most coordinate gradients away from the central
    difference noise floor.  The error denominator is floored at 1e-4, the
    usual combination of a relative with an absolute tolerance: coordinates
    with (near-)zero true gradient — convolution biases feeding train-mode
    batch norm are exactly cancelled by the normalization, and some input
    pixels land below 1e-6 — would otherwise divide rounding noise by itself.
    Floored coordinates still must agree to 1e-9 absolute for a check to
    stay under a 1e-5 threshold.
    """
    config = config or default_check_config()
    model = M.build(config)
    rng = np.random.default_rng(99)
    x0 = rng.standard_normal((1, config.input_channels, config.input_size, config.input_size))
    labels = np.array([1])
    r_logits = ad.Variable(Tensor(rng.standard_normal((1, config.num_classes))))

    def loss_of(v):
        logits = M.forward(model, v, "train")
        return ad.add(L.softmax_cross_entropy(logits, labels),
                      ad.total(ad.mul(logits, r_logits)))

    batch = Tensor(x0)
    leaf = ad.Variable(batch, requires_grad=True)
    ad.backward(loss_of(leaf))

    def probe():
        return loss_of(ad.Variable(batch)).value.item()

    rows = [("model/input", ad.central_difference_error(
        probe, x0.reshape(-1), leaf.grad.data.reshape(-1), range(0, x0.size, input_stride),
        EPS, floor=1e-4))]
    for name, p in model.params.items():
        n = p.value.size
        picks = sorted(set(int(c) for c in rng.integers(0, n, size=min(coords_per_param, n))))
        rows.append((f"model/{name}", ad.central_difference_error(
            probe, p.value.data.reshape(-1), p.grad.data.reshape(-1), picks, EPS, floor=1e-4)))
        p.grad = None
    return rows
