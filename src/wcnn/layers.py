"""Neural network building blocks over the autodiff tape.

Convolution is implemented as cross-correlation (no kernel flip), the usual
CNN convention; learned weights make the orientation immaterial.  The filter
bank in `wavelet` handles its own alignment explicitly.  Padding is zero
padding.  This artifact only needs square 1x1/3x3 kernels and strides 1/2,
and the parameter records enforce that.

`conv2d` unrolls each image channel-major (Caffe-style im2col) into columns
`[n, c*k*k, ho*wo]`: the forward GEMM writes C-contiguous NCHW output and the
input-gradient columns come out as contiguous per-tap blocks.  The columns of
a 1x1 stride-1 kernel are a view of the (padded) input, so it is one GEMM.
The columns are not kept: the forward builds them per image range for its
GEMM and drops them, and the backward rebuilds them from the input, which
the tape holds anyway, to form dW.  The rebuild is a strided copy; keeping
them would hold about half of a 224-px training step's memory.
A conv of `_SPLIT_FLOP` forward FLOPs or more runs one image range per CPU on a
thread pool; every image's arithmetic is unchanged, so bits match at any CPU count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Variable, record
from .tensor import ShapeError, tag

_SPLIT_FLOP = 5e7  # two ranges lost to hand-off below about 2e7, won 1.4-2.2x above 5e7
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = ThreadPoolExecutor(max_workers=_CPUS)


def _over_images(n: int, flop: float, fn) -> None:
    """Call fn(lo, hi) on one image range per CPU, or on [0, n) inline below `_SPLIT_FLOP`."""
    parts = min(n, _CPUS)
    if flop < _SPLIT_FLOP or parts == 1:
        return fn(0, n)
    cuts = [n * r // parts for r in range(parts + 1)]
    list(_POOL.map(fn, cuts[:-1], cuts[1:]))  # reading every result re-raises a range's error


@dataclass
class Conv2dParams:
    """Weights [out_ch, in_ch, k, k], bias [out_ch], integer stride and padding."""

    weight: Variable
    bias: Variable
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        o, c, kh, kw = self.weight.value.shape
        if kh != kw or kh not in (1, 3):
            raise ShapeError(f"conv kernel must be square 1x1 or 3x3, got {kh}x{kw}")
        if self.stride not in (1, 2):
            raise ShapeError(f"conv stride must be 1 or 2, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"conv padding must be >= 0, got {self.padding}")
        if self.bias.value.shape != (o,):
            raise ShapeError(f"conv bias shape {self.bias.value.shape} != ({o},)")


@dataclass
class BatchNormParams:
    """Per-channel affine parameters plus running statistics.

    Running statistics use population (biased) variance and are updated by an
    exponential moving average with the given momentum.
    """

    gamma: Variable
    beta: Variable
    running_mean: np.ndarray = None
    running_var: np.ndarray = None
    epsilon: float = 1e-5
    momentum: float = 0.1

    def __post_init__(self):
        c = self.gamma.value.shape[0]
        dt = self.gamma.value.dtype
        if self.beta.value.shape != (c,):
            raise ShapeError("batch norm gamma/beta shape mismatch")
        if self.running_mean is None:
            self.running_mean = np.zeros(c, dt)
        if self.running_var is None:
            self.running_var = np.ones(c, dt)
        for stat in (self.running_mean, self.running_var):
            if stat.shape != (c,) or stat.dtype != dt:
                raise ShapeError(f"batch norm running statistics must be {dt}[{c}]")
        if self.epsilon <= 0:
            raise ShapeError("batch norm epsilon must be positive")
        if not 0.0 < self.momentum < 1.0:
            raise ShapeError("batch norm momentum must lie in (0, 1)")
        if np.any(self.running_var < 0):
            raise ShapeError("batch norm running variance must be non-negative")


def conv2d(x: Variable, p: Conv2dParams) -> Variable:
    """2-D convolution over NCHW input.

    Output extent per axis is floor((in + 2*pad - k)/stride) + 1; with k=3,
    pad=1, stride=1 the spatial shape is preserved, with stride=2 it halves
    (rounding up).  The backward closure keeps x, not its columns: it rebuilds
    each image range's columns from x for dW and drops them before the
    input-gradient columns are allocated, so x must not change in place
    before the backward.
    """
    xd = x.value
    if xd.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input, got rank {xd.ndim}")
    w, b = p.weight, p.bias
    wd, bd = w.value, b.value
    n, c, h, width = xd.shape
    o, cw, kh, kw = wd.shape
    if c != cw:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {cw}")
    if wd.dtype != xd.dtype:
        raise ShapeError(f"conv2d dtype mismatch: input {tag(xd)}, weight {tag(wd)}")
    s, pad = p.stride, p.padding
    ho = (h + 2 * pad - kh) // s + 1
    wo = (width + 2 * pad - kw) // s + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv2d empty output for input {h}x{width}, k={kh}, pad={pad}")

    ckk = c * kh * kw
    direct = kh == 1 and s == 1  # the columns are the (padded) input, viewed as is

    def columns(lo, hi):
        """The unrolled columns [hi - lo, c*k*k, ho*wo] of images lo..hi-1."""
        xs = xd[lo:hi]
        if pad:
            xs = np.zeros((hi - lo, c, h + 2 * pad, width + 2 * pad), xd.dtype)
            xs[:, :, pad:pad + h, pad:pad + width] = xd[lo:hi]
        win = sliding_window_view(xs, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
        win = win.transpose(0, 1, 4, 5, 2, 3)
        if direct:
            return win.reshape(hi - lo, ckk, ho * wo)
        cols = np.empty((hi - lo, ckk, ho * wo), xd.dtype)
        np.copyto(cols.reshape(win.shape), win)
        return cols

    wmat = wd.reshape(o, ckk)
    y = np.empty((n, o, ho * wo), xd.dtype)
    flop = 2.0 * n * o * ckk * ho * wo

    def forward_range(lo, hi):
        np.matmul(wmat, columns(lo, hi), out=y[lo:hi])
        y[lo:hi] += bd[:, None]

    _over_images(n, flop, forward_range)

    def backward_fn(g):
        gm = g.reshape(n, o, ho * wo)
        db = g.sum(axis=(0, 2, 3))
        dws = np.empty((n, o, ckk), g.dtype)
        _over_images(n, flop, lambda lo, hi: np.matmul(
            gm[lo:hi], columns(lo, hi).transpose(0, 2, 1), out=dws[lo:hi]))
        dw = sum(dws).reshape(o, c, kh, kw)  # image by image, in order, as a serial loop adds
        dws = None  # spent, like each range's columns; free it before the input-gradient columns
        if not x._live:
            return None, dw, db
        dcols = np.empty((n, c, kh, kw, ho, wo), g.dtype)
        dxp = np.zeros((n, c, h + 2 * pad, width + 2 * pad), dtype=g.dtype)

        def input_grad_range(lo, hi):
            np.matmul(wmat.T, gm[lo:hi], out=dcols[lo:hi].reshape(hi - lo, ckk, ho * wo))
            for i in range(kh):
                for j in range(kw):
                    dxp[lo:hi, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[lo:hi, :, i, j]

        _over_images(n, flop, input_grad_range)
        dx = dxp[:, :, pad:pad + h, pad:pad + width] if pad else dxp
        return dx, dw, db

    return record("conv2d", y.reshape(n, o, ho, wo), (x, w, b), backward_fn)


def average_pool(x: Variable, p: int) -> Variable:
    """Mean over non-overlapping p x p blocks; spatial extents must divide by p."""
    xd = x.value
    if xd.ndim != 4:
        raise ShapeError(f"average_pool expects NCHW input, got rank {xd.ndim}")
    if p < 1:
        raise ShapeError(f"pool size must be >= 1, got {p}")
    n, c, h, w = xd.shape
    if h % p or w % p:
        raise ShapeError(f"average_pool extent {h}x{w} not divisible by {p}")
    y = xd.reshape(n, c, h // p, p, w // p, p).mean(axis=(3, 5))

    def backward_fn(g):
        dx = np.repeat(np.repeat(g, p, axis=2), p, axis=3) / (p * p)
        return (dx,)

    return record("average_pool", y, (x,), backward_fn)


def relu(x: Variable) -> Variable:
    xd = x.value
    mask = xd > 0
    return record("relu", np.maximum(xd, 0), (x,), lambda g: (g * mask,))


def batch_norm(x: Variable, p: BatchNormParams, mode: str) -> Variable:
    """Normalize per channel; the mode only picks the statistics.

    Train mode uses the batch mean and population variance and advances the
    running statistics by their EMA; eval mode uses the running statistics
    and leaves them as they are.  Only in train mode do the statistics depend
    on x, so only there does dx carry the two batch-mean terms.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    xd = x.value
    if xd.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got rank {xd.ndim}")
    gamma, beta = p.gamma, p.beta
    gd, bd = gamma.value, beta.value
    n, c, h, w = xd.shape
    if gd.shape[0] != c:
        raise ShapeError(f"batch_norm channel mismatch: input {c}, params {gd.shape[0]}")

    train = mode == "train"
    if train:
        if n * h * w <= 1:
            raise ShapeError("batch_norm train mode needs batch*height*width > 1 per channel")
        mu, var = xd.mean(axis=(0, 2, 3)), xd.var(axis=(0, 2, 3))
        mom = xd.dtype.type(p.momentum)
        p.running_mean = (1 - mom) * p.running_mean + mom * mu
        p.running_var = (1 - mom) * p.running_var + mom * var
    else:
        mu, var = p.running_mean, p.running_var
    inv = 1.0 / np.sqrt(var + xd.dtype.type(p.epsilon))
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    y = gd[None, :, None, None] * xhat + bd[None, :, None, None]

    def backward_fn(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        if not train:  # fixed statistics: dx is g scaled per channel
            return g * (gd * inv)[None, :, None, None], dgamma, dbeta
        dxhat = g * gd[None, :, None, None]
        dx = inv[None, :, None, None] * (
            dxhat
            - dxhat.mean(axis=(0, 2, 3))[None, :, None, None]
            - xhat * (dxhat * xhat).mean(axis=(0, 2, 3))[None, :, None, None]
        )
        return dx, dgamma, dbeta

    return record("batch_norm", y, (x, gamma, beta), backward_fn)


def global_average_pool(x: Variable) -> Variable:
    """Spatial mean per channel: [N, C, H, W] -> [N, C]."""
    xd = x.value
    if xd.ndim != 4:
        raise ShapeError(f"global_average_pool expects NCHW input, got rank {xd.ndim}")
    n, c, h, w = xd.shape
    y = xd.mean(axis=(2, 3))

    def backward_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), xd.shape),)

    return record("global_average_pool", y, (x,), backward_fn)


def fully_connected(x: Variable, weight: Variable, bias: Variable) -> Variable:
    """Affine map [batch, d] @ [d, classes] + [classes]."""
    xd, wd, bd = x.value, weight.value, bias.value
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"fully_connected shape mismatch: x {xd.shape}, weight {wd.shape}")
    if bd.shape != (wd.shape[1],):
        raise ShapeError(f"fully_connected bias shape {bd.shape} != ({wd.shape[1]},)")
    y = xd @ wd + bd[None, :]

    def backward_fn(g):
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    return record("fully_connected", y, (x, weight, bias), backward_fn)


def softmax_cross_entropy(logits: Variable, labels) -> Variable:
    """Mean negative log softmax probability of the true class.

    Computed with max-subtraction stabilization; `labels` is an integer array
    of class indices in [0, classes).
    """
    z = logits.value
    if z.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [batch, classes], got {z.shape}")
    labels = np.asarray(labels)
    n, classes = z.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= classes:
        raise ShapeError(f"label out of range [0, {classes})")
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    per_row = lse - shifted[np.arange(n), labels]
    loss = np.asarray(per_row.mean(), dtype=z.dtype)
    probs = np.exp(shifted - lse[:, None])

    def backward_fn(g):
        dz = probs.copy()
        dz[np.arange(n), labels] -= 1
        return (dz * (g.reshape(-1)[0] / n),)

    return record("softmax_cross_entropy", loss, (logits,), backward_fn)


def sigmoid_bce_multilabel(logits: Variable, targets) -> Variable:
    """Mean per-class binary cross-entropy with logit-space stabilization.

    `targets` is a {0,1} array of shape [batch, classes].
    """
    z = logits.value
    targets = np.asarray(targets, dtype=z.dtype)
    if targets.shape != z.shape:
        raise ShapeError(f"targets shape {targets.shape} != logits shape {z.shape}")
    # max(z,0) - z*y + log(1 + exp(-|z|)) is bce(sigmoid(z), y) without overflow
    per = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    loss = np.asarray(per.mean(), dtype=z.dtype)
    sig = 0.5 * (1.0 + np.tanh(0.5 * z))  # sigmoid without exp overflow

    def backward_fn(g):
        return ((sig - targets) * (g.reshape(-1)[0] / z.size),)

    return record("sigmoid_bce_multilabel", loss, (logits,), backward_fn)
