"""Finite-difference verification of every tape op and of the whole model.

Every check is one backward and central differences with the step `EPS`, at
64-bit, through `autodiff.gradient_errors`: `layer_checks` runs a table with
a check per tape op (and per conv and batch-norm variant), `model_checks`
probes the training loss with respect to the input and every parameter.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import model as M
from . import wavelet as W

EPS = 1e-5


def _v(arr, requires_grad=False):
    return ad.Variable(np.array(arr, dtype=np.float64), requires_grad=requires_grad)


def _weigh(out, r):
    return out if r is None else ad.total(ad.mul(out, _v(r)))


def layer_checks() -> list[tuple[str, float]]:
    """One `name/array` error per probed array of each check, on seeded fixtures.

    A check is (name, op, output weights, probed arrays, fixed arrays); `op`
    takes the arrays as keyword Variables, and its loss is its output weighted
    by the fixed random weights, or the output itself if they are None.
    """
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((2, 3, 8, 8))
    w3 = rng.standard_normal((4, 3, 3, 3))
    w1 = rng.standard_normal((4, 3, 1, 1))
    shift = rng.standard_normal(4)
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
    x_odd = x[:, :, 1:, :7]
    relu_x = np.where(np.abs(x) < 0.1, 0.5, x)
    # mirrored images: each channel's mean is 0 and every |x| >= 0.5, so with
    # beta = 0 no batch-norm output lies near the ReLU kink
    half = x[:1] + np.copysign(0.5, x[:1])
    bn_relu_x = np.concatenate([half, -half])
    zeros = np.zeros(3)
    x_wav = rng.standard_normal((1, 1, 8, 8))
    x_cat = rng.standard_normal((2, 1, 8, 8))
    r_cat = rng.standard_normal((2, 4, 8, 8))

    def conv(stride, extent):
        # then a fixed per-channel shift, as batch norm shifts a block's conv
        # output: each row's loss, and so its central-difference rounding, stays
        # what it was while conv2d added a bias
        b = _v(np.broadcast_to(shift[:, None, None], (2, 4, extent, extent)))
        return lambda x, weight: ad.add(L.conv2d(x, L.Conv2dParams(weight, stride)), b)

    def bn(op):
        return lambda x, gamma, beta: op(x, L.BatchNormParams(gamma, beta))

    table = [
        ("conv2d", conv(1, 8), r_conv, {"x": x, "weight": w3}, {}),
        ("conv2d-stride2", conv(2, 4), r_half, {"x": x, "weight": w3}, {}),
        ("conv2d-stride2-odd", conv(2, 4), r_half, {"x": x_odd}, {"weight": w3}),
        ("conv2d-1x1", conv(1, 8), r_conv, {"x": x, "weight": w1}, {}),
        ("average_pool", lambda x: L.average_pool(x, 2), r_pool, {"x": x}, {}),
        ("relu", L.relu, r_like, {"x": relu_x}, {}),
        ("batch_norm-train", bn(L.batch_norm), r_like,
         {"x": x, "gamma": gamma, "beta": beta}, {}),
        ("batch_norm_relu-train", bn(L.batch_norm_relu), r_like,
         {"x": bn_relu_x, "gamma": gamma, "beta": zeros}, {}),
        ("global_average_pool", L.global_average_pool, r_gap, {"x": x}, {}),
        ("fully_connected", L.fully_connected, r_fc,
         {"x": fc_x, "weight": fc_w, "bias": fc_b}, {}),
        ("softmax_cross_entropy", lambda logits: L.softmax_cross_entropy(logits, labels),
         None, {"logits": fc_x[:, :4]}, {}),
        ("sigmoid_bce", lambda logits: L.sigmoid_bce_multilabel(logits, targets),
         None, {"logits": fc_x[:, :4]}, {}),
        ("wavelet_decompose", lambda x: reduce(
            ad.add, [ad.total(ad.mul(s, s)) for s in W.decompose_variables(x, 2)]),
         None, {"x": x_wav}, {}),
        ("concat_channels", lambda a, b: ad.concat_channels([a, b]), r_cat,
         {"a": x, "b": x_cat}, {}),
        ("scale", lambda a: ad.scale(a, -1.5), r_like, {"a": x}, {}),
    ]
    rows = []
    for name, op, weights, probed, fixed in table:
        leaves = {k: _v(a, requires_grad=True) for k, a in probed.items()}
        args = {**leaves, **{k: _v(a) for k, a in fixed.items()}}
        errors = ad.gradient_errors(lambda: _weigh(op(**args), weights), leaves, None, EPS,
                                    floor=1e-12)
        rows += [(f"{name}/{k}", err) for k, err in errors.items()]
    return rows


def default_check_config() -> M.WaveletCnnConfig:
    return M.WaveletCnnConfig(levels=2, input_size=32, input_channels=1,
                              channels=(4, 6), blocks_per_stage=1, num_classes=3,
                              precision="f64", init_seed=7)


def model_checks(config: M.WaveletCnnConfig, *, input_stride: int,
                 coords_per_param: int) -> list[tuple[str, float]]:
    """End-to-end loss gradients: every `input_stride`-th input coordinate and
    a seeded sample of up to `coords_per_param` coordinates of every parameter
    tensor.

    The loss is the classification loss plus a fixed random linear functional
    of the logits, which keeps most gradients away from the central-difference
    noise floor.  The error denominator is floored at 1e-4: coordinates with
    (near-)zero true gradient (in the default check model, input pixels and
    conv weights whose gradient is as small as 5e-8) would otherwise divide
    rounding noise by itself.  Floored coordinates must still agree to 1e-9
    absolute to stay under a 1e-5 threshold.  Train-mode batch norm advances
    running statistics it never reads, so every probe is the same function.
    """
    model = M.build(config)
    rng = np.random.default_rng(99)
    x0 = rng.standard_normal((1, config.input_channels, config.input_size, config.input_size))
    labels = np.array([1])
    r_logits = ad.Variable(rng.standard_normal((1, config.num_classes)))
    leaves = {"input": ad.Variable(x0, requires_grad=True), **model.params}
    coords = {"input": range(0, x0.size, input_stride)}
    for name, p in model.params.items():
        picks = rng.integers(0, p.value.size, size=min(coords_per_param, p.value.size))
        coords[name] = sorted({int(c) for c in picks})

    def loss():
        logits = M.forward(model, leaves["input"], "train")
        return ad.add(L.softmax_cross_entropy(logits, labels),
                      ad.total(ad.mul(logits, r_logits)))

    errors = ad.gradient_errors(loss, leaves, coords, EPS, floor=1e-4)
    return [(f"model/{name}", err) for name, err in errors.items()]
