import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from wcnn import autodiff as ad
from wcnn import gradcheck as G
from wcnn import layers as L
from wcnn import model as M
from wcnn import wavelet
from wcnn.tensor import ShapeError, Tensor


def var(arr, requires_grad=False, dtype="f64"):
    return ad.Variable(Tensor(np.asarray(arr), dtype=dtype), requires_grad=requires_grad)


def conv_params(weight, stride=1):
    return L.Conv2dParams(var(weight), stride=stride)


# (kernel, stride, padding k // 2) of the three conv kinds the model builds
CONV_KINDS = [(3, 1, 1), (3, 2, 1), (1, 1, 0)]


# --- conv2d -------------------------------------------------------------------


def test_conv2d_ones_kernel_counts_overlap():
    x = var(np.ones((1, 1, 4, 4)))
    p = conv_params(np.ones((1, 1, 3, 3)))
    y = L.conv2d(x, p).value[0, 0]
    assert y.shape == (4, 4)
    assert y[1, 1] == 9.0
    assert y[0, 0] == 4.0
    assert y[0, 1] == 6.0


def test_conv2d_stride2_halves_224():
    x = var(np.zeros((1, 1, 224, 224)))
    p = conv_params(np.zeros((1, 1, 3, 3)), stride=2)
    assert L.conv2d(x, p).value.shape == (1, 1, 112, 112)


def test_conv2d_stride2_equals_stride1_then_downsample():
    rng = np.random.default_rng(0)
    x = var(rng.standard_normal((2, 3, 8, 8)))
    w = rng.standard_normal((4, 3, 3, 3))
    y2 = L.conv2d(x, conv_params(w, stride=2)).value
    y1 = L.conv2d(x, conv_params(w, stride=1)).value
    # two kernels (im2col at stride 2, shifted taps at stride 1) sum in different orders
    assert np.max(np.abs(y2 - y1[:, :, ::2, ::2])) <= 1e-12


@pytest.mark.parametrize("h,w", [(1, 1), (1, 5), (3, 3), (6, 4), (7, 7)])
def test_conv2d_same_padding_preserves_shape(h, w):
    x = var(np.ones((1, 2, h, w)))
    p = conv_params(np.ones((3, 2, 3, 3)), stride=1)
    assert L.conv2d(x, p).value.shape == (1, 3, h, w)


def test_conv2d_linearity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 6, 6))
    y = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    a, b = 0.7, -1.3
    p = conv_params(w)
    lhs = L.conv2d(var(a * x + b * y), p).value
    rhs = a * L.conv2d(var(x), p).value + b * L.conv2d(var(y), p).value
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conv2d_errors():
    x = var(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError):
        L.conv2d(x, conv_params(np.zeros((1, 3, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        conv_params(np.zeros((1, 1, 5, 5)))  # unsupported kernel size
    with pytest.raises(ShapeError):
        conv_params(np.zeros((1, 1, 3, 3)), stride=3)
    with pytest.raises(ShapeError):
        conv_params(np.zeros((1, 1, 1, 1)), stride=2)  # no 1x1 stride-2 kind


def test_conv2d_finite_differences():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((1, 1, 8, 8))
    w0 = rng.standard_normal((2, 1, 3, 3))

    def wrt_x(v):
        return ad.total(L.conv2d(v, conv_params(w0)))

    assert ad.finite_difference_check(wrt_x, Tensor(x0), eps=1e-5) < 1e-6

    def wrt_w(v):
        p = L.Conv2dParams(v, stride=2)
        return ad.total(L.conv2d(var(x0), p))

    assert ad.finite_difference_check(wrt_w, Tensor(w0), eps=1e-5) < 1e-6


def _conv2d_reference(xd, wd, s, pad, g):
    """Pixel-major (NHWC-ordered) im2col convolution, forward and backward.

    Returns y and, for the output gradient g, (dx, dw).
    """
    n, c, h, width = xd.shape
    o, _, kh, kw = wd.shape
    ho = (h + 2 * pad - kh) // s + 1
    wo = (width + 2 * pad - kw) // s + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)
    wmat = wd.reshape(o, c * kh * kw)
    y = (cols @ wmat.T).reshape(n, ho, wo, o).transpose(0, 3, 1, 2)
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, o)
    dw = (gmat.T @ cols).reshape(o, c, kh, kw)
    dwin = (gmat @ wmat).reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dwin[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return y, dxp[:, :, pad:pad + h, pad:pad + width], dw


@pytest.mark.parametrize("dtype,rtol", [("f64", 1e-12), ("f32", 1e-5)])
@pytest.mark.parametrize("k,s,pad", CONV_KINDS)
def test_conv2d_matches_reference(k, s, pad, dtype, rtol):
    rng = np.random.default_rng(15)
    for n, (h, w) in itertools.product((1, 3), [(1, 1), (5, 5), (7, 6), (8, 8)]):
        x = var(rng.standard_normal((n, 2, h, w)), requires_grad=True, dtype=dtype)
        p = L.Conv2dParams(var(rng.standard_normal((3, 2, k, k)), True, dtype), stride=s)
        y = L.conv2d(x, p)
        g = rng.standard_normal(y.value.shape).astype(y.value.dtype)
        ad.backward(ad.total(ad.mul(y, var(g, dtype=dtype))))
        ref = _conv2d_reference(x.value, p.weight.value, s, pad, g)
        got = (y.value, x.grad, p.weight.grad)
        for name, a, b in zip(("y", "dx", "dw"), got, ref):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol, err_msg=f"{name} n={n} {h}x{w}")


def test_conv2d_dead_input_gradient_is_skipped():
    # the input gradient is neither computed nor returned when nothing upstream
    # needs it, and the parameter gradients do not depend on whether it does
    rng = np.random.default_rng(16)
    x0 = rng.standard_normal((2, 3, 7, 7))
    w0 = rng.standard_normal((4, 3, 3, 3))
    grads = []
    for live in (True, False):
        x = var(x0, requires_grad=live)
        p = L.Conv2dParams(var(w0, True), stride=2)
        y = L.conv2d(x, p)
        dx = y._backward_fn(np.ones(y.value.shape))[0]
        assert (dx is None) == (not live)
        y = L.conv2d(x, p)
        ad.backward(ad.total(ad.mul(y, y)))
        grads.append(p.weight.grad)
    assert np.array_equal(*grads)


def test_conv2d_output_is_contiguous_nchw():
    # every conv kind the model builds, and no other
    model = M.build(M.WaveletCnnConfig(levels=2, input_size=32, channels=(4, 6), num_classes=3))
    combos = {(p.weight.value.shape[2], p.stride) for p, _ in model.blocks.values()}
    assert combos == {(k, s) for k, s, _ in CONV_KINDS}
    rng = np.random.default_rng(17)
    for (k, s), (h, w) in itertools.product(combos, [(8, 8), (7, 5)]):
        x = var(rng.standard_normal((2, 3, h, w)))
        y = L.conv2d(x, conv_params(rng.standard_normal((4, 3, k, k)), stride=s))
        yd = y.value
        assert yd.shape == (2, 4, -(-h // s), -(-w // s))
        assert yd.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("k,s,pad", CONV_KINDS)
def test_conv2d_image_output_does_not_depend_on_its_batch(k, s, pad, dtype):
    # each image of a batch of 16 has the bits it gets in the smallest
    # sub-batch that makes the same kernel choice n*ho*wo >= o: alone, but in
    # pairs where a 3x3 stride-1 conv's 4x4 map has 16 columns for 24 channels
    rng = np.random.default_rng(13)
    for h in (8, 4):
        x = var(rng.standard_normal((16, 12, h, h)), dtype=dtype)
        p = L.Conv2dParams(var(rng.standard_normal((24, 12, k, k)), dtype=dtype), stride=s)
        whole = L.conv2d(x, p).value
        m = -(-24 // (h * h)) if (k, s) == (3, 1) else 1  # only that conv has the rule
        for i in range(0, 16, m):
            part = L.conv2d(ad.Variable(x.value[i:i + m]), p).value
            assert np.array_equal(part, whole[i:i + m]), (h, i)


def test_conv2d_1x1_is_a_plain_gemm_without_unrolling():
    # the columns of a 1x1 kernel are a view of the input,
    # so the forward allocates far less than a copy of the input
    x = var(np.ones((2, 64, 32, 32)))
    p = conv_params(np.ones((4, 64, 1, 1)))
    tracemalloc.start()
    try:
        y = L.conv2d(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(y.value == 64.0)
    assert peak < x.value.nbytes // 2


def test_conv2d_stride1_3x3_builds_no_columns():
    # the shifted taps read the padded input and gradient in place: forward and
    # backward together never hold even half of one im2col column buffer
    x = var(np.ones((2, 16, 32, 32)), requires_grad=True)
    p = conv_params(np.ones((4, 16, 3, 3)))
    cols_nbytes = 2 * 16 * 9 * 32 * 32 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = L.conv2d(x, p)
        y._backward_fn(np.ones(y.value.shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before - y.value.nbytes < 0.5 * cols_nbytes


def test_conv2d_forward_retains_no_columns():
    # between forward and backward the tape holds y and the input, not the columns
    x = var(np.ones((2, 16, 32, 32)), requires_grad=True)
    p = conv_params(np.ones((4, 16, 3, 3)))
    cols_nbytes = 2 * 16 * 9 * 32 * 32 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = L.conv2d(x, p)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held - y.value.nbytes < 0.25 * cols_nbytes


def test_conv2d_backward_holds_no_weight_copy():
    # the nine-tap forward copies the weights into taps; once conv2d returns,
    # nothing may keep that copy (one weight copy per conv at paper scale)
    x = var(np.ones((1, 64, 4, 4)), requires_grad=True)
    p = conv_params(np.ones((16, 64, 3, 3)))  # n*ho*wo = 16 >= 16: nine taps
    w_nbytes = p.weight.value.nbytes
    assert w_nbytes > x.value.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = L.conv2d(x, p)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held - y.value.nbytes < 0.5 * w_nbytes


def _shifted_taps_serial(xd, wd, g):
    """Whole-batch stride-1 3x3 conv2d as nine shifted GEMMs over flat padded rows."""
    width = xd.shape[3]
    o, c = wd.shape[:2]
    ho, wo = g.shape[2:]

    def flat(a):  # pad by one plus one zero row, rows end to end
        a = np.pad(a, ((0, 0), (0, 0), (1, 2), (1, 1)))
        return a.reshape(a.shape[0], a.shape[1], -1), a.shape[3]

    def taps(af, row, rows):
        return [(i, j, af[:, :, i * row + j:i * row + j + rows * row]) for i in range(3) for j in range(3)]

    xf, row = flat(xd)
    yr = sum(np.ascontiguousarray(wd[:, :, i, j]) @ xs for i, j, xs in taps(xf, row, ho))
    y = yr.reshape(-1, o, ho, row)[..., :wo]
    gp = np.zeros((g.shape[0], o, ho, row), g.dtype)
    gp[..., :wo] = g
    gp = gp.reshape(-1, o, ho * row)
    dw = np.zeros((o, c, 3, 3), g.dtype)
    for m in range(g.shape[0]):  # image by image, in order
        dwm = np.empty_like(dw)
        for i, j, xs in taps(xf[m:m + 1], row, ho):
            dwm[:, :, i, j] = gp[m] @ xs[0].T
        dw += dwm
    gf, grow = flat(g)
    flipped = np.ascontiguousarray(wd[:, :, ::-1, ::-1].transpose(2, 3, 1, 0))
    dxr = sum(flipped[i, j] @ gs for i, j, gs in taps(gf, grow, xd.shape[2]))
    dx = dxr.reshape(xd.shape[:3] + (grow,))[..., :width]
    return y, dx, dw


def _conv2d_serial(xd, wd, s, pad, g):
    """Whole-batch conv2d: the arithmetic every image range must repeat.  dW is
    formed tap by tap and image by image in order, whichever kernel the
    forward ran; a stride-1 3x3 conv reads its taps from the padded rows."""
    n, c, h, width = xd.shape
    o, _, kh, kw = wd.shape
    ho, wo = g.shape[2:]
    if kh == 3 and s == 1:
        shifted = _shifted_taps_serial(xd, wd, g)
        if n * ho * wo >= o:
            return shifted
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)
    wmat = wd.reshape(o, c * kh * kw)
    y = (wmat @ cols).reshape(n, o, ho, wo)
    gm = g.reshape(n, o, ho * wo)
    if kh == 3 and s == 1:
        dw = shifted[2]
    else:
        dw = np.zeros((o, c, kh, kw), g.dtype)
        for m in range(n):  # image by image, in order
            dwm = np.empty_like(dw)
            for i in range(kh):
                for j in range(kw):
                    xs = np.ascontiguousarray(win[m, :, :, :, i, j]).reshape(c, ho * wo)
                    dwm[:, :, i, j] = gm[m] @ xs.T
            dw += dwm
    dcols = (wmat.T @ gm).reshape(n, c, kh, kw, ho, wo)
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[:, :, i, j]
    return y, dxp[:, :, pad:pad + h, pad:pad + width], dw


def _check_conv2d_ranges(monkeypatch, x0, w0, g, s, dtype, label):
    """conv2d's y, dx and dW on one range and on one uneven range per CPU
    have the bits of the whole-batch arithmetic."""
    x = var(x0, requires_grad=True, dtype=dtype)
    p = L.Conv2dParams(var(w0, True, dtype), stride=s)
    g = g.astype(x.value.dtype)
    want = _conv2d_serial(x.value, p.weight.value, s, w0.shape[2] // 2, g)
    for gate, cpus in ((np.inf, 3), *((0.0, cpus) for cpus in (2, 3, 4, 9, 10))):
        monkeypatch.setattr(L, "_SPLIT_FLOP", gate)
        monkeypatch.setattr(L, "_CPUS", cpus)
        y = L.conv2d(x, p)
        got = (y.value, *y._backward_fn(g))
        for name, a, b in zip(("y", "dx", "dw"), got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), \
                f"{name} {label} gate={gate} cpus={cpus}"


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("k,s,pad", CONV_KINDS)
def test_conv2d_image_ranges_are_bit_identical_to_one_range(monkeypatch, k, s, pad, dtype):
    # a gate of inf runs one range on the calling thread; a gate of 0 splits
    # the work into one uneven range per CPU on the pool: images (forward,
    # dx) or taps (dW).  At every CPU count,
    # up to more ranges than there are taps, all must give the bits of the
    # whole-batch arithmetic
    rng = np.random.default_rng(18)
    big = rng.standard_normal((7, 6, 9, 16))
    views = {  # non-owning inputs, as the subband stacks and sliced batches are
        "owned": lambda n: big[:n, :4, :, :8].copy(),
        "channel-slice": lambda n: big[1:1 + n, 2:6, :, :8],
        "column-stride": lambda n: big[:n, :4, :, ::2],
    }
    for n, (kind, make) in itertools.product((1, 2, 3, 5), views.items()):
        x0 = make(n)
        assert x0.shape == (n, 4, 9, 8) and (kind == "owned") == (x0.base is None)
        w0 = rng.standard_normal((5, 4, k, k))
        g = rng.standard_normal((n, 5, (9 + 2 * pad - k) // s + 1, (8 + 2 * pad - k) // s + 1))
        _check_conv2d_ranges(monkeypatch, x0, w0, g, s, dtype, f"n={n} {kind}")
    if s == 2:  # a stage-opening conv of desk size, where one GEMM over all nine
        # taps' columns rounds otherwise than nine GEMMs of one tap each
        x0, w0 = rng.standard_normal((16, 12, 16, 16)), rng.standard_normal((24, 12, 3, 3))
        g = rng.standard_normal((16, 24, 8, 8))
        _check_conv2d_ranges(monkeypatch, x0, w0, g, s, dtype, "desk")


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("o,k,gate", [(3, 1, 0.0), (1, 3, 0.0), (1, 3, np.inf)])
def test_conv2d_weight_image_sum_is_in_image_order_for_lone_elements(monkeypatch, o, k, gate, dtype):
    # numpy sums the images of a lone element pairwise from eight on, not one
    # by one: a 3x3 conv with one channel in and out has one-element taps,
    # split or not, and three 1x1 weights make one three-element tap.  Each
    # must add its images in order
    monkeypatch.setattr(L, "_SPLIT_FLOP", gate)
    monkeypatch.setattr(L, "_CPUS", 3)
    rng = np.random.default_rng(19)
    scale = np.logspace(0, 7, 9)[:, None, None, None]  # rounding that depends on the order
    x = var(rng.standard_normal((9, 1, 4, 4)) * scale, requires_grad=True, dtype=dtype)
    p = L.Conv2dParams(var(rng.standard_normal((o, 1, k, k)), True, dtype))
    g = rng.standard_normal((9, o, 4, 4)).astype(x.value.dtype)
    want = _conv2d_serial(x.value, p.weight.value, 1, k // 2, g)[2]
    assert np.array_equal(L.conv2d(x, p)._backward_fn(g)[1], want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_conv2d_generated_shapes(data):
    # a drawn kind, batch, extent and dtype, with out-channels on both sides of
    # the nine-tap rule n*ho*wo >= o: the reference's values at its tolerances,
    # and over uneven image ranges the bits of one range.  dW sums up to 405
    # products per entry, so the absolute tolerance scales with the largest entry
    k, s, pad = data.draw(st.sampled_from(CONV_KINDS), label="kind")
    n, c, h, w = (data.draw(st.integers(1, top), label=name)
                  for name, top in (("n", 5), ("c", 6), ("h", 9), ("w", 9)))
    dtype, rtol = data.draw(st.sampled_from([("f64", 1e-12), ("f32", 1e-5)]), label="dtype")
    columns = n * -(-h // s) * -(-w // s)
    taps = data.draw(st.booleans(), label="n*ho*wo >= o")
    o = data.draw(st.integers(1, columns) if taps else st.integers(columns + 1, columns + 8),
                  label="o")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = var(rng.standard_normal((n, c, h, w)), requires_grad=True, dtype=dtype)
    p = L.Conv2dParams(var(rng.standard_normal((o, c, k, k)), True, dtype), stride=s)
    g = rng.standard_normal((n, o, -(-h // s), -(-w // s))).astype(x.value.dtype)
    ref = _conv2d_reference(x.value, p.weight.value, s, pad, g)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(L, "_CPUS", 3)
        for gate in (np.inf, 0.0):
            mp.setattr(L, "_SPLIT_FLOP", gate)
            y = L.conv2d(x, p)
            runs.append((y.value, *y._backward_fn(g)))
    for name, one, split, want in zip(("y", "dx", "dw"), *runs, ref):
        atol = rtol * max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(one, want, rtol=rtol, atol=atol, err_msg=name)
        assert one.dtype == split.dtype and np.array_equal(one, split), name


def test_conv2d_gradcheck_over_image_ranges(monkeypatch):
    # the gradcheck fixtures are far below the gate, so force the split
    monkeypatch.setattr(L, "_SPLIT_FLOP", 0.0)
    monkeypatch.setattr(L, "_CPUS", 2)
    rows = [(name, err) for name, err in G.layer_checks() if name.startswith("conv2d")]
    assert len(rows) == 7
    for name, err in rows:
        assert err < 1e-5, f"{name}: {err:.2e}"


LAYER_ROWS = [
    "conv2d/x", "conv2d/weight", "conv2d-stride2/x", "conv2d-stride2/weight",
    "conv2d-stride2-odd/x", "conv2d-1x1/x", "conv2d-1x1/weight",
    "average_pool/x", "relu/x",
    "batch_norm-train/x", "batch_norm-train/gamma", "batch_norm-train/beta",
    "batch_norm_relu-train/x", "batch_norm_relu-train/gamma", "batch_norm_relu-train/beta",
    "global_average_pool/x",
    "fully_connected/x", "fully_connected/weight", "fully_connected/bias",
    "softmax_cross_entropy/logits", "sigmoid_bce/logits", "wavelet_decompose/x",
    "concat_channels/a", "concat_channels/b", "scale/a",
]


def _recorded_op_names() -> set[str]:
    """Every op name passed to `record(...)` in the library; an f-string name
    such as `subbands_level{t}` is kept as its constant prefix plus `*`."""
    names = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "wcnn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "record":
                continue
            op = node.args[0]
            names.add(op.value if isinstance(op, ast.Constant) else op.values[0].value + "*")
    return names


def test_every_tape_op_has_a_check_row(monkeypatch):
    # `layers` imports `record` by name, so it is wrapped there too
    recorded, real_record = set(), ad.record

    def record(op, *rest):
        recorded.add(op)
        return real_record(op, *rest)

    monkeypatch.setattr(ad, "record", record)
    monkeypatch.setattr(L, "record", record)
    G.layer_checks()
    names = _recorded_op_names()
    assert {"add", "conv2d", "concat_channels", "subbands_level*"} <= names
    missing = [n for n in sorted(names) if not (
        any(r.startswith(n[:-1]) for r in recorded) if n.endswith("*") else n in recorded)]
    assert missing == []


def test_layer_check_rows_one_backward_per_check(monkeypatch):
    backwards, real_backward = [], ad.backward
    monkeypatch.setattr(ad, "backward", lambda loss: backwards.append(loss) or real_backward(loss))
    rows = G.layer_checks()
    assert [name for name, _ in rows] == LAYER_ROWS
    assert len(backwards) == len({name.split("/")[0] for name in LAYER_ROWS}) == 15
    for name, err in rows:
        assert err < 1e-6, f"{name}: {err:.2e}"


# --- pooling ------------------------------------------------------------------


def test_average_pool_basics():
    y = L.average_pool(var([[[[1.0, 2.0], [3.0, 4.0]]]]), 2)
    assert y.value.reshape(-1).tolist() == [2.5]
    const = L.average_pool(var(np.full((1, 2, 4, 4), 3.25)), 2)
    assert np.all(const.value == 3.25)
    with pytest.raises(ShapeError):
        L.average_pool(var(np.zeros((1, 1, 5, 4))), 2)


def test_average_pool_composition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 8, 8))
    twice = L.average_pool(L.average_pool(var(x), 2), 2).value
    once = L.average_pool(var(x), 4).value
    assert np.max(np.abs(twice - once)) < 1e-12


def test_average_pool_equals_generalized_conv_pool():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 8))
    pooled = L.average_pool(var(x.reshape(1, 1, 8, 8)), 2).value[0, 0]
    kernel = np.full((2, 2), 0.25)
    alt = wavelet.generalized_conv_pool(Tensor(x), kernel, 2).data
    assert np.max(np.abs(pooled - alt)) < 1e-12


def test_average_pool_finite_differences():
    rng = np.random.default_rng(5)
    f = lambda v: ad.total(ad.mul(L.average_pool(v, 2), L.average_pool(v, 2)))
    assert ad.finite_difference_check(f, Tensor(rng.standard_normal((1, 2, 4, 4))), eps=1e-5) < 1e-6


# --- relu ---------------------------------------------------------------------


def test_relu():
    y = L.relu(var([[-1.0, 0.0, 2.0]]))
    assert y.value.tolist() == [[0.0, 0.0, 2.0]]
    assert np.all(L.relu(var(-np.ones((2, 2)))).value == 0)


def test_relu_finite_differences_away_from_zero():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4))
    x = np.where(np.abs(x) < 0.1, 0.5, x)  # keep clear of the kink
    r = ad.Variable(Tensor(rng.standard_normal((3, 4))))
    f = lambda v: ad.total(ad.mul(L.relu(v), r))
    assert ad.finite_difference_check(f, Tensor(x), eps=1e-5) < 1e-6


# --- batch norm ----------------------------------------------------------------


def bn_params(c, gamma=None, beta=None, **kw):
    g = np.ones(c) if gamma is None else np.asarray(gamma, dtype=float)
    b = np.zeros(c) if beta is None else np.asarray(beta, dtype=float)
    return L.BatchNormParams(var(g), var(b), **kw)


def test_batch_norm_train_normalizes():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3, 5, 5)) * 3 + 1
    y = L.batch_norm(var(x), bn_params(3)).value
    assert np.max(np.abs(y.mean(axis=(0, 2, 3)))) < 1e-12
    assert np.max(np.abs(y.var(axis=(0, 2, 3)) - 1)) < 1e-4  # epsilon effect


def test_batch_norm_gamma_zero_gives_beta():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2, 3, 3))
    p = bn_params(2, gamma=[0.0, 0.0], beta=[0.5, -1.5])
    y = L.batch_norm(var(x), p).value
    assert np.all(y[:, 0] == 0.5)
    assert np.all(y[:, 1] == -1.5)


def test_batch_norm_eval_matches_hand_computation():
    # one eval block, its batch norm folded into the conv: four samples of one
    # channel through a 1x1 conv, with the running statistics set by hand
    x = np.array([-1.0, 1.0, 2.0, 3.0]).reshape(4, 1, 1, 1)
    conv = L.Conv2dParams(var([[[[1.5]]]]))
    p = bn_params(1, gamma=[2.0], beta=[0.25], epsilon=1e-5)
    p.running_mean = np.array([0.5])
    p.running_var = np.array([4.0])
    block = M.Model(M.WaveletCnnConfig(), blocks={"block": (conv, p)})
    y = M._cbr(block, var(x), "block", "eval").value.reshape(-1)
    expected = np.maximum((1.5 * x.reshape(-1) - 0.5) / np.sqrt(4.0 + 1e-5) * 2.0 + 0.25, 0)
    assert y[0] == 0.0 and np.all(y[1:] > 0)
    assert np.max(np.abs(y - expected)) < 1e-14


def test_batch_norm_running_stats_ema():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 2, 3, 3)) + 5.0
    p = bn_params(2, momentum=0.1)
    L.batch_norm(var(x), p)
    mu = x.mean(axis=(0, 2, 3))
    vr = x.var(axis=(0, 2, 3))
    assert np.allclose(p.running_mean, 0.9 * 0.0 + 0.1 * mu, rtol=0, atol=1e-15)
    assert np.allclose(p.running_var, 0.9 * 1.0 + 0.1 * vr, rtol=0, atol=1e-15)


def test_batch_norm_degenerate_train_raises():
    with pytest.raises(ShapeError):
        L.batch_norm(var(np.ones((1, 2, 1, 1))), bn_params(2))


@pytest.mark.parametrize("stats", [
    {"running_mean": np.zeros(2)},  # one entry short of the 3 channels
    {"running_var": np.ones((3, 1))},
    {"running_mean": np.zeros(3, np.float32)},  # gamma is f64
])
def test_batch_norm_running_stats_must_match_gamma(stats):
    with pytest.raises(ShapeError, match="running statistic"):
        bn_params(3, **stats)


def test_batch_norm_finite_differences():
    # probe with a fixed random linear functional: sum(y*y) of a normalized
    # output is nearly constant in x, which would starve the difference quotient
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal((2, 2, 3, 3))
    g0 = rng.standard_normal(2) + 1.5
    b0 = rng.standard_normal(2)
    r = ad.Variable(Tensor(rng.standard_normal((2, 2, 3, 3))))

    def wrt_x(v):
        p = L.BatchNormParams(var(g0), var(b0))
        out = L.batch_norm(v, p)
        return ad.total(ad.mul(out, r))

    assert ad.finite_difference_check(wrt_x, Tensor(x0), eps=1e-5) < 1e-6

    def wrt_gamma(v):
        p = L.BatchNormParams(v, var(b0))
        out = L.batch_norm(var(x0), p)
        return ad.total(ad.mul(out, r))

    assert ad.finite_difference_check(wrt_gamma, Tensor(g0), eps=1e-5) < 1e-6

    def wrt_beta(v):
        p = L.BatchNormParams(var(g0), v)
        out = L.batch_norm(var(x0), p)
        return ad.total(ad.mul(out, r))

    assert ad.finite_difference_check(wrt_beta, Tensor(b0), eps=1e-5) < 1e-6


def test_batch_norm_f32_holds_when_the_mean_dwarfs_the_spread():
    # x = 100 + N(0, 1): a variance taken as E[x^2] - mean^2 cancels to about
    # 1e-3 relative error in y, dx and dgamma (3.6e-4 to 1.4e-3 over six seeds),
    # while summing the squares of x - mean stays near 1e-5 or below against
    # the f64 run on the same values
    rng = np.random.default_rng(26)
    x0 = (100 + rng.standard_normal((16, 12, 16, 16))).astype(np.float32)
    g0 = rng.standard_normal(x0.shape).astype(np.float32)
    gamma, beta = (rng.standard_normal(12) + 1).astype(np.float32), rng.standard_normal(12)
    runs = []
    for dtype in (np.float32, np.float64):
        x = ad.Variable(x0.astype(dtype), requires_grad=True)
        p = L.BatchNormParams(ad.Variable(gamma.astype(dtype), True),
                              ad.Variable(beta.astype(dtype), True))
        y = L.batch_norm(x, p)
        runs.append((y.value, *y._backward_fn(g0.astype(dtype))))
    for name, a, b in zip(("y", "dx", "dgamma", "dbeta"), *runs):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() <= 1e-4 * np.abs(b).max(), name


def _bn_relu_step(op, x0, g0, b0, r):
    """Output, running statistics and gradients of op(x, p) under the loss sum(op * r)."""
    x, gamma, beta = (ad.Variable(a.copy(), requires_grad=True) for a in (x0, g0, b0))
    c = x0.shape[1]
    p = L.BatchNormParams(gamma, beta, running_mean=np.linspace(-0.2, 0.3, c, dtype=x0.dtype),
                          running_var=np.linspace(0.5, 2.0, c, dtype=x0.dtype))
    y = op(x, p)
    out = y.value.copy()
    ad.backward(ad.total(ad.mul(y, ad.Variable(r))))
    return out, p.running_mean, p.running_var, x.grad, gamma.grad, beta.grad


# the three desk stages' batch-norm inputs, and one wider map
@pytest.mark.parametrize("shape", [(16, 12, 16, 16), (16, 24, 8, 8), (16, 32, 4, 4),
                                   (4, 64, 28, 28)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train"])  # batch norm's one mode; the cases keep their ids
def test_batch_norm_relu_is_bit_identical_to_relu_of_batch_norm(shape, dtype, mode):
    rng = np.random.default_rng(sum(shape))
    x0 = (rng.standard_normal(shape) * 2 + 0.3).astype(dtype)
    g0 = (rng.standard_normal(shape[1]) + 1).astype(dtype)
    b0 = rng.standard_normal(shape[1]).astype(dtype)
    r = rng.standard_normal(shape).astype(dtype)
    fused = _bn_relu_step(L.batch_norm_relu, x0, g0, b0, r)
    oracle = _bn_relu_step(lambda x, p: L.relu(L.batch_norm(x, p)), x0, g0, b0, r)
    names = ("y", "running_mean", "running_var", "dx", "dgamma", "dbeta")
    for name, a, b in zip(names, fused, oracle):
        assert a.dtype == dtype and np.array_equal(a, b), name
    # the in-place arithmetic computes the closed form as written, bit for bit
    y, rm, rv, dx, dgamma, dbeta = oracle
    want = _bn_serial(x0, g0, b0, np.linspace(-0.2, 0.3, shape[1], dtype=dtype),
                      np.linspace(0.5, 2.0, shape[1], dtype=dtype), True, r)
    names = ("y", "dx", "dgamma", "dbeta", "running_mean", "running_var")
    for name, a, b in zip(names, (y, dx, dgamma, dbeta, rm, rv), want):
        assert np.array_equal(a, b), name


def test_batch_norm_relu_keeps_no_batch_norm_output():
    # the closure holds x, mean, inv and the output itself: nothing the size
    # of x beyond y stays allocated after the forward
    x = var(np.random.default_rng(4).standard_normal((8, 16, 32, 32)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = L.batch_norm_relu(x, bn_params(16))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held - y.value.nbytes < 0.25 * x.value.nbytes


def _bn_serial(x, gd, bd, rm, rv, relu, g):
    """Whole-array batch norm, then the ReLU if `relu`, and its backward under
    the output gradient g: the arithmetic every channel range must repeat.
    Returns y, dx, dgamma, dbeta and the running mean and variance after."""
    c4, count = (None, slice(None), None, None), x.size // x.shape[1]
    eps, mom = x.dtype.type(1e-5), x.dtype.type(0.1)
    mu = np.einsum("nchw->c", x) / count
    d = x - mu[c4]
    var_ = np.einsum("nchw,nchw->c", d, d) / count
    rm, rv = (1 - mom) * rm + mom * mu, (1 - mom) * rv + mom * var_
    inv = 1.0 / np.sqrt(var_ + eps)
    k1 = gd * inv
    y = d * k1[c4] + bd[c4]
    if relu:
        y = np.maximum(y, 0)
        g = g * (y > 0)
    dbeta = np.einsum("nchw->c", g)
    dgamma = inv * np.einsum("nchw,nchw->c", g, d)
    dx = k1[c4] * g + (-k1 * inv * dgamma / count)[c4] * d + (-k1 * dbeta / count)[c4]
    return y, dx, dgamma, dbeta, rm, rv


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train"])  # batch norm's one mode; the cases keep their ids
@pytest.mark.parametrize("op", [L.batch_norm, L.batch_norm_relu], ids=lambda op: op.__name__)
def test_batch_norm_channel_ranges_are_bit_identical_to_one_range(monkeypatch, op, mode, dtype):
    # a gate of 0 splits every batch into min(c // 2, 3) channel ranges of at
    # least two channels on the pool (fewer than four channels stay one
    # range), a gate of inf runs one range on the calling thread; both must
    # give the bits of the whole-array arithmetic, and so must a BN-ReLU
    # written into channels of a wider buffer, as the model's stage buffers
    monkeypatch.setattr(L, "_CPUS", 3)
    ranges = []
    pool_map = L._POOL.map
    monkeypatch.setattr(L._POOL, "map", lambda fn, los, his: ranges.append(len(los)) or
                        pool_map(fn, los, his))
    rng = np.random.default_rng(19)
    big = (rng.standard_normal((5, 13, 6, 7)) * 2 + 0.3).astype(dtype)
    views = {  # non-owning inputs, as the channel-concatenated stage inputs are
        "owned": lambda c: big[:, :c].copy(),
        "channel-slice": lambda c: big[:, 2:2 + c],
    }
    for c, (kind, make) in itertools.product((2, 3, 4, 7, 11), views.items()):
        x = ad.Variable(make(c), requires_grad=True)
        assert (kind == "owned") == (x.value.base is None)
        gd = (rng.standard_normal(c) + 1).astype(dtype)
        bd = rng.standard_normal(c).astype(dtype)
        rm, rv = np.linspace(-0.2, 0.3, c, dtype=dtype), np.linspace(0.5, 2.0, c, dtype=dtype)
        g = rng.standard_normal(x.value.shape).astype(dtype)
        want = _bn_serial(x.value, gd, bd, rm, rv, op is L.batch_norm_relu, g)
        intos = (False, True) if op is L.batch_norm_relu else (False,)
        for gate, into in itertools.product((np.inf, 0.0), intos):
            monkeypatch.setattr(L, "_SPLIT_BN", gate)
            ranges.clear()
            p = L.BatchNormParams(ad.Variable(gd.copy(), True), ad.Variable(bd.copy(), True),
                                  running_mean=rm.copy(), running_var=rv.copy())
            if into:
                out = np.empty((5, c + 3, 6, 7), dtype)[:, 1:1 + c]
                y = op(x, p, out)
                assert y.value is out
            else:
                y = op(x, p)
            got = (y.value, *y._backward_fn(g), p.running_mean, p.running_var)
            names = ("y", "dx", "dgamma", "dbeta", "running_mean", "running_var")
            for name, a, b in zip(names, got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), f"{name} c={c} {kind} {gate}"
            assert ranges == ([min(c // 2, 3)] * 2 if gate == 0 and c >= 4 else []), (c, gate)


def test_batch_norm_relu_rejects_an_out_unlike_its_input():
    x = var(np.ones((2, 3, 4, 4)))
    for out in (np.empty((2, 4, 4, 4)), np.empty((2, 3, 4, 4), np.float32)):
        with pytest.raises(ShapeError):
            L.batch_norm_relu(x, bn_params(3), out)


def test_batch_norm_gradcheck_over_channel_ranges(monkeypatch):
    # the gradcheck fixtures are far below the gate, so force the split; their
    # three channels make one range of the split path, and a six-channel
    # input adds three ranges of two
    monkeypatch.setattr(L, "_SPLIT_BN", 0.0)
    monkeypatch.setattr(L, "_CPUS", 3)
    rows = [(name, err) for name, err in G.layer_checks() if name.startswith("batch_norm")]
    assert len(rows) == 6
    rng = np.random.default_rng(21)
    x, r = rng.standard_normal((2, 6, 4, 4)), rng.standard_normal((2, 6, 4, 4))
    gamma, beta = rng.standard_normal(6) + 1.5, rng.standard_normal(6)
    for op in (L.batch_norm, L.batch_norm_relu):
        leaves = {k: ad.Variable(a.copy(), requires_grad=True)
                  for k, a in (("x", x), ("gamma", gamma), ("beta", beta))}

        def loss():
            return ad.total(ad.mul(op(leaves["x"], L.BatchNormParams(leaves["gamma"],
                                                                     leaves["beta"])),
                                   ad.Variable(r)))

        errors = ad.gradient_errors(loss, leaves, None, G.EPS, floor=1e-12)
        rows += [(f"{op.__name__}-6ch/{k}", err) for k, err in errors.items()]
    for name, err in rows:
        assert err < 1e-5, f"{name}: {err:.2e}"


# --- global average pool / fully connected -------------------------------------


def test_global_average_pool():
    const = L.global_average_pool(var(np.full((2, 3, 4, 4), 1.75)))
    assert const.value.shape == (2, 3)
    assert np.all(const.value == 1.75)
    x = np.arange(6.0).reshape(2, 3, 1, 1)
    squeeze = L.global_average_pool(var(x))
    assert np.array_equal(squeeze.value, x[:, :, 0, 0])


def test_global_average_pool_matches_full_extent_average_pool():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 6, 6))
    gap = L.global_average_pool(var(x)).value
    ap = L.average_pool(var(x), 6).value[:, :, 0, 0]
    assert np.max(np.abs(gap - ap)) < 1e-12


def test_fully_connected():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    eye = np.eye(2)
    y = L.fully_connected(var(x), var(eye), var(np.zeros(2)))
    assert np.array_equal(y.value, x)
    bias_only = L.fully_connected(var(x), var(np.zeros((2, 3))), var(np.array([1.0, 2.0, 3.0])))
    assert np.array_equal(bias_only.value, np.tile([1.0, 2.0, 3.0], (2, 1)))
    with pytest.raises(ShapeError):
        L.fully_connected(var(x), var(np.zeros((3, 2))), var(np.zeros(2)))


def test_fully_connected_finite_differences():
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal((3, 4))
    w0 = rng.standard_normal((4, 2))
    b0 = rng.standard_normal(2)
    sq = lambda v: ad.total(ad.mul(v, v))
    assert ad.finite_difference_check(
        lambda v: sq(L.fully_connected(v, var(w0), var(b0))), Tensor(x0), eps=1e-5) < 1e-6
    assert ad.finite_difference_check(
        lambda v: sq(L.fully_connected(var(x0), v, var(b0))), Tensor(w0), eps=1e-5) < 1e-6
    assert ad.finite_difference_check(
        lambda v: sq(L.fully_connected(var(x0), var(w0), v)), Tensor(b0), eps=1e-5) < 1e-6


# --- losses ---------------------------------------------------------------------


def test_softmax_cross_entropy_uniform_logits():
    for classes in (2, 5, 11):
        loss = L.softmax_cross_entropy(var(np.zeros((3, classes))), np.zeros(3, dtype=int))
        assert abs(loss.value.item() - np.log(classes)) < 1e-12


def test_softmax_cross_entropy_confident():
    z = np.zeros((1, 4))
    z[0, 2] = 1e4
    loss = L.softmax_cross_entropy(var(z), np.array([2]))
    assert loss.value.item() < 1e-10


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ShapeError):
        L.softmax_cross_entropy(var(np.zeros((2, 3))), np.array([0, 3]))


def test_softmax_cross_entropy_gradient():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, size=4)
    v = var(z, requires_grad=True)
    ad.backward(L.softmax_cross_entropy(v, labels))
    shifted = np.exp(z - z.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    onehot = np.eye(5)[labels]
    assert np.max(np.abs(v.grad - (probs - onehot) / 4)) < 1e-12
    err = ad.finite_difference_check(
        lambda u: L.softmax_cross_entropy(u, labels), Tensor(z), eps=1e-5)
    assert err < 1e-6


def test_sigmoid_bce_multilabel():
    loss = L.sigmoid_bce_multilabel(var(np.zeros((2, 3))), np.zeros((2, 3)))
    assert abs(loss.value.item() - np.log(2)) < 1e-12
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    confident = np.where(targets > 0, 1e3, -1e3)
    assert L.sigmoid_bce_multilabel(var(confident), targets).value.item() < 1e-10
    rng = np.random.default_rng(14)
    z = rng.standard_normal((3, 4))
    y = (rng.random((3, 4)) > 0.5).astype(float)
    err = ad.finite_difference_check(
        lambda u: L.sigmoid_bce_multilabel(u, y), Tensor(z), eps=1e-5)
    assert err < 1e-6
