"""Multiresolution analysis with paired orthonormal filters.

The unifying primitive is convolve-then-downsample: correlate with a kernel,
then keep every p-th sample starting at index 0.  A pair of kernels (the
scaling/lowpass and wavelet/highpass functions) turns that primitive into one
analysis level; recursing on the lowpass output builds the subband pyramid.

Alignment convention: the two-tap filters act on the non-overlapping pairs
(x0,x1), (x2,x3), ... — correlation at even offsets.  2-D levels apply the
pair separably along width and then height; a subband name's first letter is
the height filter, the second the width filter (so "LH" is lowpass along
height, highpass along width).

The Haar pair shipped here is orthonormal (taps 1/sqrt(2)), which makes
energy conservation and perfect reconstruction exact up to rounding; its
lowpass band is exactly 2x a 2x2 average pool per 2-D level.

Inputs whose extents do not divide by 2^levels are rejected rather than
padded, so subband extents are always exactly input/2^level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .tensor import ShapeError, Tensor

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class FilterPair:
    """Analysis filter pair: lowpass (scaling) and highpass (wavelet) taps."""

    name: str
    lowpass: tuple[float, ...]
    highpass: tuple[float, ...]

    def __post_init__(self):
        if len(self.lowpass) != len(self.highpass):
            raise ShapeError("filter pair taps must have equal length")

    @property
    def taps(self) -> int:
        return len(self.lowpass)

    def low_kernel_2d(self) -> np.ndarray:
        """Separable 2-D lowpass kernel (outer product of the 1-D taps)."""
        lo = np.asarray(self.lowpass, dtype=np.float64)
        return np.outer(lo, lo)

    def is_orthonormal(self, tol: float = 1e-12) -> bool:
        lo = np.asarray(self.lowpass)
        hi = np.asarray(self.highpass)
        return (
            abs(lo @ lo - 1.0) < tol
            and abs(hi @ hi - 1.0) < tol
            and abs(lo @ hi) < tol
        )


HAAR = FilterPair("haar", (1.0 / _SQRT2, 1.0 / _SQRT2), (1.0 / _SQRT2, -1.0 / _SQRT2))

_REGISTRY = {"haar": HAAR}


def get_filter(name: str) -> FilterPair:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ShapeError(f"unknown filter pair {name!r}; available: {sorted(_REGISTRY)}") from None


@dataclass
class SubbandPyramid:
    """Hierarchical decomposition: per-level detail triples plus the final low band.

    `levels[t-1]` holds the (LH, HL, HH) detail subbands at extent
    source/2^t; `lowpass` is the remaining low band at source/2^levels.
    """

    levels: list[tuple[Tensor, Tensor, Tensor]]
    lowpass: Tensor
    source_shape: tuple[int, ...]
    filter_name: str = "haar"

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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# --- the generalized convolve-then-downsample primitive ----------------------


def generalized_conv_pool(x, kernel, p: int) -> Tensor:
    """1-D correlate-then-downsample: y[i] = sum_j k[j] x[p*i + j].

    p=1 is plain (valid) convolution; an averaging kernel of width p gives
    average pooling; a composite kernel w*p reproduces convolution followed
    by pooling.
    """
    x = _as_tensor(x)
    if x.ndim != 1:
        raise ShapeError(f"generalized_conv_pool expects a vector, got rank {x.ndim}")
    if p < 1:
        raise ShapeError(f"downsampling factor must be >= 1, got {p}")
    k = np.asarray(kernel, dtype=x.data.dtype)
    n, o = x.size, k.size
    if n < o:
        raise ShapeError(f"input extent {n} smaller than kernel width {o}")
    win = np.lib.stride_tricks.sliding_window_view(x.data, o)
    return Tensor((win @ k)[::p].copy())


def generalized_conv_pool2d(x, kernel2d, p: int) -> Tensor:
    """2-D correlate-then-downsample on the trailing two axes, per channel."""
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"generalized_conv_pool2d expects >= 2 axes, got rank {x.ndim}")
    if p < 1:
        raise ShapeError(f"downsampling factor must be >= 1, got {p}")
    k = np.asarray(kernel2d, dtype=x.data.dtype)
    if k.ndim != 2:
        raise ShapeError("kernel must be 2-D")
    kh, kw = k.shape
    h, w = x.shape[-2], x.shape[-1]
    if h < kh or w < kw:
        raise ShapeError(f"input extent {h}x{w} smaller than kernel {kh}x{kw}")
    win = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(-2, -1))
    y = np.einsum("...ij,ij->...", win, k)
    slicer = (Ellipsis, slice(None, None, p), slice(None, None, p))
    return Tensor(np.ascontiguousarray(y[slicer]))


# --- paired-filter analysis / synthesis --------------------------------------


def _check_two_taps(f: FilterPair):
    if f.taps != 2:
        raise ShapeError(
            f"transform supports two-tap filter pairs; {f.name!r} has {f.taps} taps"
        )


def _split_axis(a: np.ndarray, f: FilterPair, axis: int):
    extent = a.shape[axis]
    if extent % 2:
        raise ShapeError(f"extent {extent} along axis {axis} is odd; analysis needs even extents")
    idx_even = [slice(None)] * a.ndim
    idx_odd = [slice(None)] * a.ndim
    idx_even[axis] = slice(0, None, 2)
    idx_odd[axis] = slice(1, None, 2)
    even, odd = a[tuple(idx_even)], a[tuple(idx_odd)]
    l0, l1 = f.lowpass
    h0, h1 = f.highpass
    return even * l0 + odd * l1, even * h0 + odd * h1


def _merge_axis(lo: np.ndarray, hi: np.ndarray, f: FilterPair, axis: int) -> np.ndarray:
    if lo.shape != hi.shape:
        raise ShapeError(f"subband shape mismatch: {lo.shape} vs {hi.shape}")
    l0, l1 = f.lowpass
    h0, h1 = f.highpass
    shape = list(lo.shape)
    shape[axis] *= 2
    out = np.empty(shape, dtype=lo.dtype)
    idx_even = [slice(None)] * out.ndim
    idx_odd = [slice(None)] * out.ndim
    idx_even[axis] = slice(0, None, 2)
    idx_odd[axis] = slice(1, None, 2)
    # orthonormal analysis matrix [[l0, l1], [h0, h1]]: synthesis is its transpose
    out[tuple(idx_even)] = lo * l0 + hi * h0
    out[tuple(idx_odd)] = lo * l1 + hi * h1
    return out


def dwt1d(x, f: FilterPair = HAAR) -> tuple[Tensor, Tensor]:
    """One analysis level of a vector: (lowpass, highpass), each half extent."""
    x = _as_tensor(x)
    if x.ndim != 1:
        raise ShapeError(f"dwt1d expects a vector, got rank {x.ndim}")
    _check_two_taps(f)
    lo, hi = _split_axis(x.data, f, 0)
    return Tensor(lo), Tensor(hi)


def _dwt2d_arrays(a: np.ndarray, f: FilterPair):
    lo_w, hi_w = _split_axis(a, f, a.ndim - 1)
    ll, hl = _split_axis(lo_w, f, a.ndim - 2)
    lh, hh = _split_axis(hi_w, f, a.ndim - 2)
    return ll, lh, hl, hh


def _idwt2d_arrays(ll, lh, hl, hh, f: FilterPair) -> np.ndarray:
    lo_w = _merge_axis(ll, hl, f, ll.ndim - 2)
    hi_w = _merge_axis(lh, hh, f, ll.ndim - 2)
    return _merge_axis(lo_w, hi_w, f, ll.ndim - 1)


def dwt2d_level(image, f: FilterPair = HAAR) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """One separable 2-D analysis level on the trailing two axes.

    Returns (LL, LH, HL, HH) at half the spatial extent; leading axes
    (batch, channel) pass through untouched.
    """
    image = _as_tensor(image)
    if image.ndim < 2:
        raise ShapeError(f"dwt2d_level expects >= 2 axes, got rank {image.ndim}")
    _check_two_taps(f)
    ll, lh, hl, hh = _dwt2d_arrays(image.data, f)
    return Tensor(ll), Tensor(lh), Tensor(hl), Tensor(hh)


def check_divisible(shape, levels: int):
    h, w = shape[-2], shape[-1]
    factor = 1 << levels
    if h % factor or w % factor:
        need_h = (h + factor - 1) // factor * factor
        need_w = (w + factor - 1) // factor * factor
        raise ShapeError(
            f"spatial extent {h}x{w} not divisible by 2^{levels}={factor}; "
            f"pad to {need_h}x{need_w} first"
        )


def decompose(image, levels: int, f: FilterPair = HAAR) -> SubbandPyramid:
    """Recursive analysis: split off detail triples, recurse on the low band."""
    image = _as_tensor(image)
    if levels < 1:
        raise ShapeError(f"levels must be >= 1, got {levels}")
    check_divisible(image.shape, levels)
    detail: list[tuple[Tensor, Tensor, Tensor]] = []
    low = image.data
    for _ in range(levels):
        low, lh, hl, hh = _dwt2d_arrays(low, f)
        detail.append((Tensor(lh), Tensor(hl), Tensor(hh)))
    return SubbandPyramid(detail, Tensor(low), image.shape, f.name)


def reconstruct(pyramid: SubbandPyramid, f: FilterPair | None = None) -> Tensor:
    """Exact inverse of `decompose` for orthonormal filter pairs."""
    if f is None:
        f = get_filter(pyramid.filter_name)
    low = pyramid.lowpass.data
    for lh, hl, hh in reversed(pyramid.levels):
        if lh.shape != low.shape:
            raise ShapeError(
                f"malformed pyramid: detail shape {lh.shape} does not match low band {low.shape}"
            )
        low = _idwt2d_arrays(low, lh.data, hl.data, hh.data, f)
    if low.shape != pyramid.source_shape:
        raise ShapeError(
            f"malformed pyramid: reconstructed {low.shape}, expected {pyramid.source_shape}"
        )
    return Tensor(low)


def cnn_reduction(x, kernels, p: int = 2) -> Tensor:
    """The lowpass-only chain: repeatedly correlate-and-downsample per channel.

    This is what a plain strided-convolution stack computes — the detail
    subbands are simply never produced.  `kernels` is one 2-D kernel per
    step; an empty list is the identity.
    """
    x = _as_tensor(x)
    out = x
    for k in kernels:
        out = generalized_conv_pool2d(out, k, p)
    return Tensor(out.data.copy()) if not kernels else out


# --- autodiff bridge ----------------------------------------------------------


def decompose_variables(x: ad.Variable, levels: int, f: FilterPair = HAAR) -> list[ad.Variable]:
    """Differentiable analysis of an NCHW batch into per-level detail stacks.

    Level t yields one Variable of shape [N, 3*C, H/2^t, W/2^t] holding the
    (LH, HL, HH) bands concatenated channel-wise.  The filters are fixed:
    gradients flow through the transform to the input, never into the taps.
    For orthonormal pairs the adjoint of analysis is synthesis, so each
    backward closure is an inverse-transform chain.
    """
    if x.value.ndim != 4:
        raise ShapeError(f"decompose_variables expects NCHW input, got rank {x.value.ndim}")
    check_divisible(x.value.shape, levels)
    _check_two_taps(f)
    n, c = x.value.shape[0], x.value.shape[1]

    stacks: list[ad.Variable] = []
    low = x.value.data
    for t in range(1, levels + 1):
        ll, lh, hl, hh = _dwt2d_arrays(low, f)
        stack = np.concatenate([lh, hl, hh], axis=1)

        def backward_fn(g, t=t):
            gl, gh, gg = g[:, :c], g[:, c:2 * c], g[:, 2 * c:]
            zero = np.zeros_like(gl)
            up = _idwt2d_arrays(zero, gl, gh, gg, f)
            for _ in range(t - 1):
                z = np.zeros_like(up)
                up = _idwt2d_arrays(up, z, z, z, f)
            return (up,)

        stacks.append(ad.record(f"subbands_level{t}", stack, (x,), backward_fn))
        low = ll
    return stacks
