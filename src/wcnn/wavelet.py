"""Haar multiresolution analysis and the convolve-then-downsample primitive.

The unifying primitive is convolve-then-downsample: correlate with a kernel,
then keep every p-th sample starting at index 0.  One function,
`generalized_conv_pool`, applies it on the trailing one or two axes, as many
as the kernel has; leading axes are channels.  The Haar pair (a lowpass
and a highpass kernel) turns that primitive into one analysis level;
recursing on the lowpass output builds the subband pyramid.  `decompose`
(tensors) and `decompose_variables` (tape Variables) run that one recursion.

The transform is the orthonormal Haar pair and nothing else: lowpass taps
(s, s), highpass taps (s, -s), s = 1/sqrt(2).  They act on the
non-overlapping pairs (x0,x1), (x2,x3), ... of the trailing two axes, along
width and then height; a subband name's first letter is the height filter,
the second the width filter (so "LH" is lowpass along height, highpass along
width).  Orthonormality makes energy conservation and perfect reconstruction
exact up to rounding, and the LL band is exactly 2x a 2x2 average pool per
level.

Inputs whose extents do not divide by 2^levels are rejected rather than
padded, so subband extents are always exactly input/2^level.

Each butterfly forms its two products once and writes its sum and
difference into arrays the caller gives: the pyramid, the reconstruction
and the model's subband stacks are allocated once, and each level writes
into them.  From `_SPLIT_HAAR` elements on, the recursion runs one range of
the leading (image) axis per CPU through `layers._over_ranges`.  Every
output element's arithmetic is the same in any range, so the bits are the
same at any CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers as L
from .tensor import ShapeError, Tensor, as_array

_S = 1.0 / float(np.sqrt(2.0))
_SPLIT_HAAR = 2**19  # elements; two image ranges lost below 3e5 (f32), tied at 4.5e5, won 1.3-1.9x from 6e5

# the analysis taps, as kernels for `generalized_conv_pool`
HAAR_LOWPASS = (_S, _S)
HAAR_HIGHPASS = (_S, -_S)


@dataclass
class SubbandPyramid:
    """Hierarchical decomposition: per-level detail triples plus the final low band.

    `levels[t-1]` holds the (LH, HL, HH) detail subbands at extent
    source/2^t; `lowpass` is the remaining low band at source/2^levels.
    """

    levels: list[tuple[Tensor, Tensor, Tensor]]
    lowpass: Tensor
    source_shape: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def bands(self):
        """All stored subbands: (level, name, tensor), final low band last."""
        for t, (lh, hl, hh) in enumerate(self.levels, start=1):
            yield t, "LH", lh
            yield t, "HL", hl
            yield t, "HH", hh
        yield self.depth, "LL", self.lowpass

    def energy(self) -> float:
        return float(sum((b.data**2).sum() for _, _, b in self.bands()))


# --- the generalized convolve-then-downsample primitive ----------------------


def generalized_conv_pool(x, kernel, p: int) -> Tensor:
    """Correlate-then-downsample on the trailing `kernel.ndim` axes (1 or 2):
    y[i] = sum_j k[j] x[p*i + j] along each of them, per leading index.

    p=1 is plain (valid) convolution; an averaging kernel of width p gives
    average pooling; a composite kernel w*p reproduces convolution followed
    by pooling.
    """
    x = as_array(x)
    k = np.asarray(kernel, dtype=x.dtype)
    if k.ndim not in (1, 2):
        raise ShapeError(f"kernel must be 1-D or 2-D, got rank {k.ndim}")
    if x.ndim < k.ndim:
        raise ShapeError(f"a {k.ndim}-D kernel needs >= {k.ndim} input axes, got rank {x.ndim}")
    if p < 1:
        raise ShapeError(f"downsampling factor must be >= 1, got {p}")
    extent = x.shape[-k.ndim:]
    if any(n < o for n, o in zip(extent, k.shape)):
        raise ShapeError(f"input extent {extent} smaller than kernel {k.shape}")
    axes = tuple(range(-k.ndim, 0))
    win = np.lib.stride_tricks.sliding_window_view(x, k.shape, axis=axes)
    y = win @ k if k.ndim == 1 else np.einsum("...ij,ij->...", win, k)
    return Tensor(np.ascontiguousarray(y[(Ellipsis, *[slice(None, None, p)] * k.ndim)]))


# --- Haar analysis / synthesis -------------------------------------------------


def _butterfly(a, b, lo=None, hi=None):
    """The Haar pair on matching samples: analysis of (even, odd), synthesis of (lo, hi).

    Returns (a*s + b*s, a*s - b*s), forming each product once, written into
    `lo` and `hi` when given; otherwise the difference overwrites a*s.
    """
    sa, sb = a * _S, b * _S
    lo = np.add(sa, sb, out=lo)
    return lo, np.subtract(sa, sb, out=sa if hi is None else hi)


def _analysis(x: np.ndarray, ll=None, lh=None, hl=None, hh=None):
    """One level on the trailing two axes, width then height: (LL, LH, HL, HH),
    each written into its array when given."""
    lo, hi = _butterfly(x[..., 0::2], x[..., 1::2])
    ll, hl = _butterfly(lo[..., 0::2, :], lo[..., 1::2, :], ll, hl)
    lh, hh = _butterfly(hi[..., 0::2, :], hi[..., 1::2, :], lh, hh)
    return ll, lh, hl, hh


def _synthesis(ll, lh, hl, hh, out=None) -> np.ndarray:
    """Inverse of `_analysis`, written into `out` when given; the Haar matrix is
    orthonormal, so it is its own inverse."""
    *n, h, w = ll.shape
    lo, hi = np.empty((*n, 2 * h, w), ll.dtype), np.empty((*n, 2 * h, w), ll.dtype)
    if out is None:
        out = np.empty((*n, 2 * h, 2 * w), ll.dtype)
    _butterfly(ll, hl, lo[..., 0::2, :], lo[..., 1::2, :])
    _butterfly(lh, hh, hi[..., 0::2, :], hi[..., 1::2, :])
    _butterfly(lo, hi, out[..., 0::2], out[..., 1::2])
    return out


def check_divisible(shape, levels: int):
    if levels < 1:
        raise ShapeError(f"levels must be >= 1, got {levels}")
    if len(shape) < 2:
        raise ShapeError(f"the transform needs height and width axes, got rank {len(shape)}")
    h, w = shape[-2], shape[-1]
    factor = 1 << levels
    if min(h, w) < factor:  # 0 and negative extents are multiples of 2^L too
        raise ShapeError(f"spatial extent {h}x{w} must be a positive multiple of "
                         f"2^{levels}={factor}")
    if h % factor or w % factor:
        need_h = (h + factor - 1) // factor * factor
        need_w = (w + factor - 1) // factor * factor
        raise ShapeError(
            f"spatial extent {h}x{w} not divisible by 2^{levels}={factor}; "
            f"pad to {need_h}x{need_w} first"
        )


def _over_images(x: np.ndarray, fn):
    """fn(lo, hi) over ranges of the leading (image) axis, one per CPU from
    `_SPLIT_HAAR` elements on.  A rank-2 array is one image: its one range,
    (0, height), slices every array whole."""
    L._over_ranges(len(x), fn, x.ndim > 2 and x.size >= _SPLIT_HAAR)


def _analyses(x: np.ndarray, outs) -> None:
    """The analysis recursion into `outs`, one (LL, LH, HL, HH) tuple of
    arrays per level, each analysing the last LL; a None LL is a temporary."""
    def images(lo, hi):
        low = x[lo:hi]
        for ll, *details in outs:
            low, *_ = _analysis(low, None if ll is None else ll[lo:hi], *(d[lo:hi] for d in details))

    _over_images(x, images)


def decompose(image, levels: int) -> SubbandPyramid:
    """Recursive analysis: split off detail triples, recurse on the low band."""
    image = as_array(image)
    check_divisible(image.shape, levels)
    *lead, h, w = image.shape
    bands = [tuple(np.empty((*lead, h >> t, w >> t), image.dtype) for _ in range(3))
             for t in range(1, levels + 1)]
    low = np.empty((*lead, h >> levels, w >> levels), image.dtype)
    _analyses(image, [(None, *b) for b in bands[:-1]] + [(low, *bands[-1])])
    return SubbandPyramid([tuple(map(Tensor, b)) for b in bands], Tensor(low), image.shape)


def reconstruct(pyramid: SubbandPyramid) -> Tensor:
    """Exact inverse of `decompose`."""
    low = pyramid.lowpass.data
    details = [tuple(b.data for b in bands) for bands in reversed(pyramid.levels)]
    shape = low.shape
    for lh, hl, hh in details:
        if not shape == lh.shape == hl.shape == hh.shape:
            raise ShapeError(
                f"malformed pyramid: detail shapes {lh.shape}, {hl.shape}, {hh.shape} "
                f"do not match low band {shape}"
            )
        shape = (*shape[:-2], 2 * shape[-2], 2 * shape[-1])
    if shape != pyramid.source_shape:
        raise ShapeError(
            f"malformed pyramid: reconstructed {shape}, expected {pyramid.source_shape}"
        )
    if not details:
        return Tensor(low)
    out = np.empty(shape, low.dtype)

    def images(lo, hi):
        up = low[lo:hi]
        for t, bands in enumerate(details, start=1):
            up = _synthesis(up, *(b[lo:hi] for b in bands), out[lo:hi] if t == len(details) else None)

    _over_images(out, images)
    return Tensor(out)


def cnn_reduction(x, kernels) -> Tensor:
    """The lowpass-only chain: repeatedly correlate and downsample by 2, per channel.

    This is what a plain strided-convolution stack computes — the detail
    subbands are simply never produced.  `kernels` is one 2-D kernel per
    step; an empty list is the identity.
    """
    out = Tensor(x)
    for k in kernels:
        out = generalized_conv_pool(out, k, 2)
    return Tensor(out.data.copy()) if not kernels else out


# --- autodiff bridge ----------------------------------------------------------


def decompose_variables(x: ad.Variable, levels: int) -> list[ad.Variable]:
    """Differentiable analysis of an NCHW batch into per-level detail stacks.

    Level t yields one Variable of shape [N, 3*C, H/2^t, W/2^t] holding the
    (LH, HL, HH) bands concatenated channel-wise.  The taps are fixed:
    gradients flow through the transform to the input, never into the taps.
    Haar is orthonormal, so the adjoint of analysis is synthesis and each
    backward closure is an inverse-transform chain.
    """
    if x.value.ndim != 4:
        raise ShapeError(f"decompose_variables expects NCHW input, got rank {x.value.ndim}")
    n, c, h, w = x.value.shape
    check_divisible(x.value.shape, levels)
    stacks = [np.empty((n, 3 * c, h >> t, w >> t), x.value.dtype) for t in range(1, levels + 1)]
    _analyses(x.value, [(None, s[:, :c], s[:, c:2 * c], s[:, 2 * c:]) for s in stacks])

    def backward_fn(g, t):
        gl, gh, gg = g[:, :c], g[:, c:2 * c], g[:, 2 * c:]
        up = _synthesis(np.zeros_like(gl), gl, gh, gg)
        for _ in range(t - 1):
            z = np.zeros_like(up)
            up = _synthesis(up, z, z, z)
        return (up,)

    return [ad.record(f"subbands_level{t}", stack, (x,), lambda g, t=t: backward_fn(g, t))
            for t, stack in enumerate(stacks, start=1)]
