"""Neural network building blocks over the autodiff tape.

Convolution is implemented as cross-correlation (no kernel flip), the usual
CNN convention; learned weights make the orientation immaterial.  The filter
bank in `wavelet` handles its own alignment explicitly.  The network builds
convolutions of three kinds, and `Conv2dParams` accepts no other: 3x3 at
stride 1 (the blocks of each stage), 3x3 at stride 2 (the conv that opens a
stage: convolve, then keep every second sample) and 1x1 at stride 1 (the
subband projections).  Each is zero-padded by k // 2, so stride 1 keeps the
spatial extent and stride 2 halves it, rounding up.

`conv2d` is one tap sum, two forward operand layouts, one dW method and two
dx methods.  The forward is y = sum_t W_t @ X_t, with no bias: every conv
the network builds feeds batch norm, whose mean subtraction cancels a bias
and whose beta takes over its role (Ioffe & Szegedy, arXiv:1502.03167,
section 3.2).  Tap t of dW is the sum over images of g @ X_t^T; only the
operands X_t differ from one kind to the next.  A 3x3 stride-1
conv, most of the backbone, has nine taps (the low-memory kn2row of
Anderson et al., arXiv:1709.03395): with each image's zero-padded rows laid
end to end, tap (i, j) is the contiguous slice that starts i*row + j further
on, so BLAS reads the input in place and the two junk columns per output row
are dropped afterwards.  Its weight taps are a copy, so it runs only where
the columns would be the larger copy, n*ho*wo >= out_ch: every desk-scale
conv, but not the 7x7 maps of 512 channels that end the 224-px model.  Every
other conv has one tap, the weights [o, c*k*k] against the image unrolled
channel-major (Caffe-style im2col) into columns [n, c*k*k, ho*wo], which for
a 1x1 kernel are the input itself, viewed as is; its GEMM writes the NCHW
output in place.  No operands are kept: the backward rebuilds dW's from the
input, which the tape holds anyway.  Every dW is formed one tap at a time,
each a GEMM per image into one [n, o, c] buffer whose images are then added
in order, so no per-image buffer holds all taps.  A 1x1 kernel's one tap is
the input itself; a 3x3 stride-1 conv reads the nine slices of the padded
rows, whichever kernel its forward ran, against a view into the padded g
that the nine-tap dx reads too; a 3x3 stride-2 conv copies every second
sample of one tap's window at a time.  dx is the nine-tap sum again, the
output gradient correlated with the flipped, transposed taps, which builds no
columns and scatters nothing; or, for im2col, the input-gradient columns
scattered back one contiguous per-tap block at a time.

A conv of `_SPLIT_FLOP` forward FLOPs or more runs on a thread pool, one
range per CPU: of images for the forward and dx, and of taps for dW.  No
split changes any output element's arithmetic, so bits match at any CPU
count.  A split of a GEMM's rows or columns would not: BLAS may block a part
other than the whole.

A model block trains as `conv2d` then `batch_norm_relu`, one op that keeps
no batch-norm output and bit-matches `relu(batch_norm(...))`.  `batch_norm`
and `relu` stay as its reference and gradient-check oracle; `relu` also
follows the optional embedding layer.  Batch norm is a training op: it
normalizes with the batch's statistics and advances the running ones, which
only the eval-mode fold in `model` reads.  Each direction makes two fused
per-channel sums and applies one scale per channel: the forward sums x,
then the squares of x - mean (which, unlike E[x^2] - mean^2, does not cancel
when the mean dwarfs the spread); the backward sums g and g * (x - mean),
from which both batch-mean terms of dx follow (Ioffe & Szegedy,
arXiv:1502.03167).  Every per-channel sum here is one
`np.einsum` pass with no temporary, 2-4x faster than a reduction over axes
(0, 2, 3) at desk and 224-px shapes.  A batch norm of `_SPLIT_BN` elements
or more runs one channel range per CPU on the same pool, forward and
backward; a smaller one runs the same code as one range.  A range holds at
least two channels, which einsum sums in the same order as the whole array,
so its bits too match at any CPU count.  `_over_ranges` is the one split
helper; `train.adam_step` uses it as well.
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
# elements of a BN-ReLU forward and backward: two channel ranges ran 0.4-0.6x as
# fast as one at 1e5 and 0.86-1.13x at 2e5; from 2.6e5 to 3.2e6, 1.3-1.8x while
# the second CPU was free and 0.7-1.0x while other load held it
_SPLIT_BN = 2**18
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = ThreadPoolExecutor(max_workers=_CPUS)


def _over_ranges(n: int, fn, split: bool = True, least: int = 1) -> list:
    """[fn(lo, hi)] over one contiguous range of [0, n) per CPU, each at least
    `least` long, run on `_POOL`; [fn(0, n)] on the calling thread when
    `split` is false or one range is all there is.  Results are in range order."""
    parts = min(n // least, _CPUS) if split else 1
    if parts <= 1:
        return [fn(0, n)]
    cuts = [n * r // parts for r in range(parts + 1)]
    return list(_POOL.map(fn, cuts[:-1], cuts[1:]))  # reading each result re-raises a range's error


@dataclass
class Conv2dParams:
    """Weights [out_ch, in_ch, k, k] and the stride of one of the three conv
    kinds: 3x3 at stride 1 or 2, or 1x1 at stride 1."""

    weight: Variable
    stride: int = 1

    def __post_init__(self):
        kh, kw = self.weight.value.shape[2:]
        if (kh, kw, self.stride) not in ((3, 3, 1), (3, 3, 2), (1, 1, 1)):
            raise ShapeError(f"conv must be 3x3 at stride 1 or 2 or 1x1 at stride 1, "
                             f"got {kh}x{kw} at stride {self.stride}")


@dataclass
class BatchNormParams:
    """Per-channel affine parameters plus running statistics.

    Running statistics use population (biased) variance and are updated by an
    exponential moving average with the given momentum.  An eval-mode
    `model.forward` folds them, with gamma and beta, into the block's conv.
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


def _padded_rows(a: np.ndarray, split: bool = False) -> np.ndarray:
    """a [m, c, h, w] zero-padded by one on every side, with one more zero row
    below: [m, c, h + 3, w + 2], filled one image range per CPU if `split`.
    Its first h + 2 rows are the padded image; the extra row keeps the last
    tap's slice (`_tap_slices`) inside the buffer."""
    m, c, h, w = a.shape
    buf = np.zeros((m, c, h + 3, w + 2), a.dtype)

    def fill(lo, hi):
        buf[lo:hi, :, 1:h + 1, 1:w + 1] = a[lo:hi]

    _over_ranges(m, fill, split)
    return buf


def _tap_slices(buf: np.ndarray, rows: int):
    """The nine 3x3 taps of a `_padded_rows` buffer, in (i, j) order: with its
    rows laid end to end, tap (i, j) is the view of `rows` padded rows that
    starts i*width + j on, which BLAS reads in place."""
    m, c, _, width = buf.shape
    af = buf.reshape(m, c, -1)
    return [af[:, :, i * width + j:i * width + j + rows * width]
            for i in range(3) for j in range(3)]


def _tap_sum(taps: np.ndarray, operands, out: np.ndarray):
    """out[m] = sum over the taps t, in order, of taps[t] @ operands[t][m]."""
    np.matmul(taps[0], operands[0], out=out)
    tmp = None
    for wt, xs in zip(taps[1:], operands[1:]):
        tmp = np.matmul(wt, xs, out=tmp)
        out += tmp


def _image_sum(a: np.ndarray, out: np.ndarray) -> None:
    """out = the sum of a over its leading (image) axis, image by image in
    order, as a serial loop adds.  numpy reduces two or more elements that
    way, but the images of a lone element pairwise, so that one is looped."""
    if out.size > 1:
        np.add.reduce(a, axis=0, out=out)
        return
    out[...] = 0  # the reduction's own start
    for ai in a:
        out += ai


def _weight_taps(wd: np.ndarray) -> np.ndarray:
    """The 3x3 weights [o, c, 3, 3] as nine contiguous [o, c] taps, in (i, j) order."""
    return np.ascontiguousarray(wd.transpose(2, 3, 0, 1)).reshape(9, *wd.shape[:2])


def conv2d(x: Variable, p: Conv2dParams) -> Variable:
    """2-D convolution over NCHW input: one tap sum, two forward operand layouts, one
    dW method, two dx methods.

    Every kind pads by k // 2, so the output extent per axis is
    ceil(in / stride): stride 1 keeps the shape, stride 2 halves it (rounding
    up).  y = sum_t W_t @ X_t and dW_t = sum over images of g @ X_t^T,
    where the forward's operands X_t are the nine shifted slices of the
    padded rows or the one im2col column matrix, and dW's are x's taps, one
    at a time.  The backward closure keeps x, and no operands and no tap
    copy: it rebuilds dW's operands from x and drops them before dx.  So x
    must not change in place before the backward.
    """
    xd = x.value
    if xd.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input, got rank {xd.ndim}")
    w = p.weight
    wd = w.value
    n, c, h, width = xd.shape
    o, cw, kh, kw = wd.shape
    if c != cw:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {cw}")
    if wd.dtype != xd.dtype:
        raise ShapeError(f"conv2d dtype mismatch: input {tag(xd)}, weight {tag(wd)}")
    s, pad = p.stride, kh // 2
    ho, wo = -(-h // s), -(-width // s)

    ckk = c * kh * kw
    split = 2.0 * n * o * ckk * ho * wo >= _SPLIT_FLOP  # forward FLOPs
    shifted = kh == 3 and s == 1 and n * ho * wo >= o  # the columns outweigh the weights

    taps = _weight_taps(wd) if shifted else wd.reshape(1, o, ckk)
    y = np.empty((n, o, ho, wo), xd.dtype)

    def forward_range(lo, hi):
        # the operands of images lo..hi-1, each with `row` columns per output row
        m = hi - lo
        if kh == 1:  # the input itself, viewed as columns [m, c, h*w]
            ops, row = [xd[lo:hi].reshape(m, c, h * width)], wo
        elif shifted:  # the nine tap slices of the padded rows
            ops, row = _tap_slices(_padded_rows(xd[lo:hi]), ho), width + 2
        else:  # the one unrolled column matrix [m, c*9, ho*wo]
            xp = _padded_rows(xd[lo:hi])[:, :, :h + 2]
            win = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::s, ::s]
            ops, row = [np.empty((m, ckk, ho * wo), xd.dtype)], wo
            np.copyto(ops[0].reshape(m, c, 3, 3, ho, wo), win.transpose(0, 1, 4, 5, 2, 3))
        # the GEMM writes y in place unless junk columns follow each output row
        yf = y[lo:hi].reshape(m, o, ho * wo) if row == wo else np.empty((m, o, ho * row), xd.dtype)
        _tap_sum(taps, ops, yf)
        if row != wo:
            y[lo:hi] = yf.reshape(m, o, ho, row)[..., :wo]

    _over_ranges(n, forward_range, split)

    def backward_fn(g):
        # dW's taps X_t, each read against g laid out as its columns
        if kh == 1:  # the one tap is x itself
            gm, xs = g.reshape(n, o, ho * wo), [xd]
        elif s == 1:  # the nine slices of the padded rows, whichever kernel the forward ran
            row = width + 2
            gp = _padded_rows(g, split)  # the nine-tap dx's operand; one row and one column in,
            gm = gp.reshape(n, o, -1)[:, :, row + 1:row + 1 + ho * row]  # dW's: junk columns zero
            xs = _tap_slices(_padded_rows(xd, split), ho)
        else:  # every second sample of each tap's window, copied one tap at a time below
            gm, xp = g.reshape(n, o, ho * wo), _padded_rows(xd, split)
            xs = [xp[:, :, i:i + 2 * ho:2, j:j + 2 * wo:2] for i in range(3) for j in range(3)]
        dwt = np.empty((kh * kw, o, c), g.dtype)

        def weight_grad_taps(lo, hi):
            buf = np.empty((n, o, c), g.dtype)
            for t in range(lo, hi):
                np.matmul(gm, xs[t].reshape(n, c, -1).transpose(0, 2, 1), out=buf)
                _image_sum(buf, dwt[t])

        _over_ranges(kh * kw, weight_grad_taps, split)
        xs = xp = None  # free the padded input before dx
        dw = dwt.transpose(1, 2, 0).reshape(o, c, kh, kw)
        if not x._live:
            return None, dw
        if shifted:  # correlate g, padded by one, with the flipped taps transposed
            flipped = _weight_taps(wd)[::-1].transpose(0, 2, 1)  # views BLAS reads as transposed
            dxr = np.empty((n, c, h, row), g.dtype)  # rows of g's padded width

            def input_grad_range(lo, hi):
                out = dxr[lo:hi].reshape(hi - lo, c, h * row)
                _tap_sum(flipped, _tap_slices(gp[lo:hi], h), out)

            _over_ranges(n, input_grad_range, split)
            return dxr[..., :width], dw
        # scatter the input-gradient columns, one contiguous block per tap
        dcols = np.empty((n, c, kh, kw, ho, wo), g.dtype)
        dxp = np.zeros((n, c, h + 2 * pad, width + 2 * pad), dtype=g.dtype)

        def scatter_range(lo, hi):
            np.matmul(wd.reshape(o, ckk).T, g[lo:hi].reshape(hi - lo, o, ho * wo),
                      out=dcols[lo:hi].reshape(hi - lo, ckk, ho * wo))
            for i in range(kh):
                for j in range(kw):
                    dxp[lo:hi, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[lo:hi, :, i, j]

        _over_ranges(n, scatter_range, split)
        return dxp[:, :, pad:pad + h, pad:pad + width], dw

    return record("conv2d", y, (x, w), backward_fn)


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


_C = (None, slice(None), None, None)  # a per-channel vector broadcast over NCHW


def _bn_forward_range(xs, gd, bd, eps, relu: bool, out=None):
    """(y, mean, var, inv) of the channels of xs: y = (x - mean) * (gamma *
    inv) + beta, then the ReLU if `relu`, in `out` or a fresh array, and the
    batch's own per-channel statistics it used, inv = 1/sqrt(var + eps).  The
    variance sums the squares of x - mean, which does not cancel when the
    mean is large against the spread."""
    count = xs.size // xs.shape[1]
    mu = np.einsum("nchw->c", xs) / count
    y = np.subtract(xs, mu[_C], out=out)
    var = np.einsum("nchw,nchw->c", y, y) / count
    inv = 1.0 / np.sqrt(var + eps)
    y *= (gd * inv)[_C]
    y += bd[_C]
    if relu:
        np.maximum(y, 0, out=y)
    return y, mu, var, inv


def _joined(parts: list) -> tuple:
    """The per-channel vectors of each channel range, joined in range order;
    one range's are returned as they are."""
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _bn_forward(xd: np.ndarray, p: BatchNormParams, relu: bool, out=None):
    """(y, mean, inv): y = (x - mean) * (gamma * inv) + beta (then the ReLU
    if `relu`), and the batch statistics it used; `out`, if given, ends up holding y.
    The running statistics advance by their EMA.  From `_SPLIT_BN` elements
    on, one channel range per CPU, each written in place into `out` (then y
    is `out`) or one fresh array; below, one range, into a fresh contiguous
    array that is y and is copied into `out`.  A per-channel sum over two or
    more channels has the bits of the whole array's; einsum sums a single
    channel in another order, so every range holds at least two."""
    if xd.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got rank {xd.ndim}")
    n, c, h, w = xd.shape
    gd, bd = p.gamma.value, p.beta.value
    if gd.shape[0] != c:
        raise ShapeError(f"batch_norm channel mismatch: input {c}, params {gd.shape[0]}")
    if n * h * w <= 1:
        raise ShapeError("batch_norm needs batch*height*width > 1 per channel")
    if out is not None and (out.shape != xd.shape or out.dtype != xd.dtype):
        raise ShapeError(f"batch_norm out {tag(out)}{list(out.shape)} is not the input's "
                         f"{tag(xd)}{list(xd.shape)}")
    eps = xd.dtype.type(p.epsilon)
    split = xd.size >= _SPLIT_BN
    # one range writes a fresh array, then copies it into `out`: into a channel
    # slice of a larger buffer, these ufuncs ran about 2x slower at desk scale
    y = out if split and out is not None else np.empty(xd.shape, xd.dtype)

    def channel_range(lo, hi):
        s = slice(lo, hi)
        return _bn_forward_range(xd[:, s], gd[s], bd[s], eps, relu, y[:, s])[1:]

    mu, var, inv = _joined(_over_ranges(c, channel_range, split, 2))
    if out is not None and y is not out:
        np.copyto(out, y)
    mom = xd.dtype.type(p.momentum)
    p.running_mean = (1 - mom) * p.running_mean + mom * mu
    p.running_var = (1 - mom) * p.running_var + mom * var
    return y, mu, inv


def _bn_backward_range(gy, xs, mu, inv, gd):
    """(dx, dgamma, dbeta) of the channels of xs from gy = dL/dy, which this
    overwrites with dx.

    The statistics are the batch's, so dx carries the two batch-mean terms
    (Ioffe & Szegedy, arXiv:1502.03167, section 3), both written with the
    two channel sums dbeta = sum(gy) and dgamma = inv * sum(gy * d), where
    d = x - mean:

        dx = k1 * gy + k2 * d + k3,  k1 = gamma * inv,
        k2 = -k1 * inv * dgamma / count,  k3 = -k1 * dbeta / count,

    evaluated in place in gy and d, in this order, so the bits equal those of
    the expression as written.
    """
    count = xs.size // xs.shape[1]
    dbeta = np.einsum("nchw->c", gy)
    d = np.subtract(xs, mu[_C])
    dgamma = inv * np.einsum("nchw,nchw->c", gy, d)
    k1 = gd * inv
    dx = np.multiply(gy, k1[_C], out=gy)
    d *= (-k1 * inv * dgamma / count)[_C]
    dx += d
    dx += (-k1 * dbeta / count)[_C]
    return dx, dgamma, dbeta


def _bn_backward(g, y, xd, mu, inv, gd):
    """(dx, dgamma, dbeta) from g = dL/d(output): g itself for `batch_norm`
    (y is None), g through the ReLU mask y > 0 for `batch_norm_relu`.  dx is
    one fresh array; from `_SPLIT_BN` elements on, one channel range per CPU."""
    dx = np.empty(g.shape, g.dtype)

    def channel_range(lo, hi):
        s = slice(lo, hi)
        if y is None:
            np.copyto(dx[:, s], g[:, s])
        else:
            np.multiply(g[:, s], y[:, s] > 0, out=dx[:, s])
        return _bn_backward_range(dx[:, s], xd[:, s], mu[s], inv[s], gd[s])[1:]

    dgamma, dbeta = _joined(_over_ranges(g.shape[1], channel_range, g.size >= _SPLIT_BN, 2))
    return dx, dgamma, dbeta


def batch_norm(x: Variable, p: BatchNormParams) -> Variable:
    """Normalize per channel with the batch mean and population variance,
    and advance the running statistics by their EMA.  The statistics depend
    on x, so dx carries the two batch-mean terms.  The model runs
    `batch_norm_relu`; this op and `relu` are its reference.
    """
    xd, gd = x.value, p.gamma.value
    y, mu, inv = _bn_forward(xd, p, relu=False)
    return record("batch_norm", y, (x, p.gamma, p.beta),
                  lambda g: _bn_backward(g, None, xd, mu, inv, gd))


def batch_norm_relu(x: Variable, p: BatchNormParams, out=None) -> Variable:
    """`relu(batch_norm(x, p))` as one op, bit for bit, written into `out`
    (an array of x's shape and dtype, such as a channel slice of a larger
    buffer) if given, else into a fresh array.

    The batch-norm output is never kept: the forward applies the ReLU in the
    same buffer, and the backward rebuilds x - mean from x and the ReLU mask
    from its own output (y > 0 exactly where the batch-norm output is).
    Below `_SPLIT_BN` the mask comes from the contiguous array the forward
    computed into, not from `out`: on a channel slice of a larger buffer the
    comparison took about twice as long at desk scale.
    """
    xd, gd = x.value, p.gamma.value
    y, mu, inv = _bn_forward(xd, p, relu=True, out=out)
    return record("batch_norm_relu", y if out is None else out, (x, p.gamma, p.beta),
                  lambda g: _bn_backward(g, y, xd, mu, inv, gd))


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
