import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from wcnn import autodiff as ad
from wcnn import gradcheck as G
from wcnn import layers as L
from wcnn import model as M
from wcnn import wavelet
from wcnn.tensor import ShapeError, Tensor


def var(arr, requires_grad=False, dtype="f64"):
    return ad.Variable(Tensor(np.asarray(arr), dtype=dtype), requires_grad=requires_grad)


def conv_params(weight, bias=None, stride=1, padding=0):
    w = var(weight)
    if bias is None:
        bias = np.zeros(w.value.shape[0])
    return L.Conv2dParams(w, var(bias), stride=stride, padding=padding)


# --- conv2d -------------------------------------------------------------------


def test_conv2d_ones_kernel_counts_overlap():
    x = var(np.ones((1, 1, 4, 4)))
    p = conv_params(np.ones((1, 1, 3, 3)), padding=1)
    y = L.conv2d(x, p).value[0, 0]
    assert y.shape == (4, 4)
    assert y[1, 1] == 9.0
    assert y[0, 0] == 4.0
    assert y[0, 1] == 6.0


def test_conv2d_stride2_halves_224():
    x = var(np.zeros((1, 1, 224, 224)))
    p = conv_params(np.zeros((1, 1, 3, 3)), stride=2, padding=1)
    assert L.conv2d(x, p).value.shape == (1, 1, 112, 112)


def test_conv2d_stride2_equals_stride1_then_downsample():
    rng = np.random.default_rng(0)
    x = var(rng.standard_normal((2, 3, 8, 8)))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    y2 = L.conv2d(x, conv_params(w, b, stride=2, padding=1)).value
    y1 = L.conv2d(x, conv_params(w, b, stride=1, padding=1)).value
    assert np.array_equal(y2, y1[:, :, ::2, ::2])


@pytest.mark.parametrize("h,w", [(1, 1), (1, 5), (3, 3), (6, 4), (7, 7)])
def test_conv2d_same_padding_preserves_shape(h, w):
    x = var(np.ones((1, 2, h, w)))
    p = conv_params(np.ones((3, 2, 3, 3)), padding=1, stride=1)
    assert L.conv2d(x, p).value.shape == (1, 3, h, w)


def test_conv2d_linearity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 6, 6))
    y = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    a, b = 0.7, -1.3
    p = conv_params(w, padding=1)
    lhs = L.conv2d(var(a * x + b * y), p).value
    rhs = a * L.conv2d(var(x), p).value + b * L.conv2d(var(y), p).value
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conv2d_errors():
    x = var(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError):
        L.conv2d(x, conv_params(np.zeros((1, 3, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        L.conv2d(var(np.zeros((1, 1, 2, 2))), conv_params(np.zeros((1, 1, 3, 3))))  # empty out
    with pytest.raises(ShapeError):
        conv_params(np.zeros((1, 1, 5, 5)))  # unsupported kernel size
    with pytest.raises(ShapeError):
        conv_params(np.zeros((1, 1, 3, 3)), stride=3)


def test_conv2d_finite_differences():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((1, 1, 8, 8))
    w0 = rng.standard_normal((2, 1, 3, 3))
    b0 = rng.standard_normal(2)

    def wrt_x(v):
        return ad.total(L.conv2d(v, conv_params(w0, b0, padding=1)))

    assert ad.finite_difference_check(wrt_x, Tensor(x0), eps=1e-5) < 1e-6

    def wrt_w(v):
        p = L.Conv2dParams(v, var(b0), stride=2, padding=1)
        return ad.total(L.conv2d(var(x0), p))

    assert ad.finite_difference_check(wrt_w, Tensor(w0), eps=1e-5) < 1e-6

    def wrt_b(v):
        p = L.Conv2dParams(var(w0), v, padding=1)
        return ad.total(L.conv2d(var(x0), p))

    assert ad.finite_difference_check(wrt_b, Tensor(b0), eps=1e-5) < 1e-6


def _conv2d_reference(xd, wd, bd, s, pad, g):
    """Pixel-major (NHWC-ordered) im2col convolution, forward and backward.

    Returns y and, for the output gradient g, (dx, dw, db).
    """
    n, c, h, width = xd.shape
    o, _, kh, kw = wd.shape
    ho = (h + 2 * pad - kh) // s + 1
    wo = (width + 2 * pad - kw) // s + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)
    wmat = wd.reshape(o, c * kh * kw)
    y = (cols @ wmat.T).reshape(n, ho, wo, o).transpose(0, 3, 1, 2) + bd[None, :, None, None]
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, o)
    db = g.sum(axis=(0, 2, 3))
    dw = (gmat.T @ cols).reshape(o, c, kh, kw)
    dwin = (gmat @ wmat).reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dwin[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return y, dxp[:, :, pad:pad + h, pad:pad + width], dw, db


@pytest.mark.parametrize("dtype,rtol", [("f64", 1e-12), ("f32", 1e-5)])
@pytest.mark.parametrize("k,s,pad", list(itertools.product((1, 3), (1, 2), (0, 1))))
def test_conv2d_matches_reference(k, s, pad, dtype, rtol):
    rng = np.random.default_rng(15)
    for n, (h, w) in itertools.product((1, 3), [(1, 1), (5, 5), (7, 6), (8, 8)]):
        if h + 2 * pad < k or w + 2 * pad < k:
            continue  # empty output, rejected by conv2d
        x = var(rng.standard_normal((n, 2, h, w)), requires_grad=True, dtype=dtype)
        p = L.Conv2dParams(var(rng.standard_normal((3, 2, k, k)), True, dtype),
                           var(rng.standard_normal(3), True, dtype), stride=s, padding=pad)
        y = L.conv2d(x, p)
        g = rng.standard_normal(y.value.shape).astype(y.value.dtype)
        ad.backward(ad.total(ad.mul(y, var(g, dtype=dtype))))
        ref = _conv2d_reference(x.value, p.weight.value, p.bias.value, s, pad, g)
        got = (y.value, x.grad, p.weight.grad, p.bias.grad)
        for name, a, b in zip(("y", "dx", "dw", "db"), got, ref):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol, err_msg=f"{name} n={n} {h}x{w}")


def test_conv2d_dead_input_gradient_is_skipped():
    # the input gradient is neither computed nor returned when nothing upstream
    # needs it, and the parameter gradients do not depend on whether it does
    rng = np.random.default_rng(16)
    x0 = rng.standard_normal((2, 3, 7, 7))
    w0 = rng.standard_normal((4, 3, 3, 3))
    b0 = rng.standard_normal(4)
    grads = []
    for live in (True, False):
        x = var(x0, requires_grad=live)
        p = L.Conv2dParams(var(w0, True), var(b0, True), stride=2, padding=1)
        y = L.conv2d(x, p)
        dx = y._backward_fn(np.ones(y.value.shape))[0]
        assert (dx is None) == (not live)
        y = L.conv2d(x, p)
        ad.backward(ad.total(ad.mul(y, y)))
        grads.append((p.weight.grad, p.bias.grad))
    assert all(np.array_equal(a, b) for a, b in zip(*grads))


def test_conv2d_output_is_contiguous_nchw():
    # every kernel/stride/padding combination the model builds
    model = M.build(M.WaveletCnnConfig(levels=2, input_size=32, channels=(4, 6), num_classes=3))
    combos = {(p.weight.value.shape[2], p.stride, p.padding) for p, _ in model.blocks.values()}
    assert combos == {(3, 2, 1), (1, 1, 0), (3, 1, 1)}
    rng = np.random.default_rng(17)
    for (k, s, pad), (h, w) in itertools.product(combos, [(8, 8), (7, 5)]):
        x = var(rng.standard_normal((2, 3, h, w)))
        y = L.conv2d(x, conv_params(rng.standard_normal((4, 3, k, k)), stride=s, padding=pad))
        yd = y.value
        assert yd.shape == (2, 4, (h + 2 * pad - k) // s + 1, (w + 2 * pad - k) // s + 1)
        assert yd.flags["C_CONTIGUOUS"]


def test_conv2d_1x1_is_a_plain_gemm_without_unrolling():
    # the columns of a 1x1 stride-1 unpadded kernel are a view of the input,
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


def test_conv2d_backward_frees_columns_before_input_gradient():
    # the backward rebuilds the unrolled columns and drops them once dW is
    # formed; holding them while the equally large input-gradient columns
    # exist would double the peak, so two column-sized buffers never coexist
    x = var(np.ones((2, 16, 32, 32)), requires_grad=True)
    p = conv_params(np.ones((4, 16, 3, 3)), padding=1)
    cols_nbytes = 2 * 16 * 9 * 32 * 32 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = L.conv2d(x, p)
        y._backward_fn(np.ones(y.value.shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * cols_nbytes


def test_conv2d_forward_retains_no_columns():
    # between forward and backward the tape holds y and the input, not the columns
    x = var(np.ones((2, 16, 32, 32)), requires_grad=True)
    p = conv_params(np.ones((4, 16, 3, 3)), padding=1)
    cols_nbytes = 2 * 16 * 9 * 32 * 32 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = L.conv2d(x, p)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held - y.value.nbytes < 0.25 * cols_nbytes


def _conv2d_serial(xd, wd, bd, s, pad, g):
    """Whole-batch channel-major conv2d: the arithmetic every image range must repeat."""
    n, c, h, width = xd.shape
    o, _, kh, kw = wd.shape
    ho, wo = g.shape[2:]
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)
    wmat = wd.reshape(o, c * kh * kw)
    y = (wmat @ cols).reshape(n, o, ho, wo)
    y += bd[:, None, None]
    gm = g.reshape(n, o, ho * wo)
    dw = sum(gm[i] @ cols[i].T for i in range(n)).reshape(o, c, kh, kw)
    dcols = (wmat.T @ gm).reshape(n, c, kh, kw, ho, wo)
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[:, :, i, j]
    return y, dxp[:, :, pad:pad + h, pad:pad + width], dw, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("k,s,pad", list(itertools.product((1, 3), (1, 2), (0, 1))))
def test_conv2d_image_ranges_are_bit_identical_to_one_range(monkeypatch, k, s, pad, dtype):
    # a gate of 0 splits every batch into min(n, 3) uneven ranges on the pool,
    # a gate of inf runs one range on the calling thread; both must give the
    # bits of the whole-batch arithmetic
    monkeypatch.setattr(L, "_CPUS", 3)
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
        w0, b0 = rng.standard_normal((5, 4, k, k)), rng.standard_normal(5)
        g = rng.standard_normal((n, 5, (9 + 2 * pad - k) // s + 1, (8 + 2 * pad - k) // s + 1))
        x = var(x0, requires_grad=True, dtype=dtype)
        p = L.Conv2dParams(var(w0, True, dtype), var(b0, True, dtype), stride=s, padding=pad)
        g = g.astype(x.value.dtype)
        want = _conv2d_serial(x.value, p.weight.value, p.bias.value, s, pad, g)
        for gate in (np.inf, 0.0):
            monkeypatch.setattr(L, "_SPLIT_FLOP", gate)
            y = L.conv2d(x, p)
            got = (y.value, *y._backward_fn(g))
            for name, a, b in zip(("y", "dx", "dw", "db"), got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), f"{name} n={n} {kind} {gate}"


def test_conv2d_gradcheck_over_image_ranges(monkeypatch):
    # the gradcheck fixtures are far below the gate, so force the split
    monkeypatch.setattr(L, "_SPLIT_FLOP", 0.0)
    monkeypatch.setattr(L, "_CPUS", 2)
    rows = [(name, err) for name, err in G.layer_checks() if name.startswith("conv2d")]
    assert len(rows) == 9
    for name, err in rows:
        assert err < 1e-5, f"{name}: {err:.2e}"


LAYER_ROWS = [
    "conv2d/x", "conv2d/weight", "conv2d/bias",
    "conv2d-stride2/x", "conv2d-stride2/weight", "conv2d-stride2/bias",
    "conv2d-stride2-odd/x", "conv2d-1x1/x", "conv2d-1x1/weight",
    "average_pool/x", "relu/x",
    "batch_norm-train/x", "batch_norm-train/gamma", "batch_norm-train/beta",
    "batch_norm-eval/x",
    "batch_norm_relu-train/x", "batch_norm_relu-train/gamma", "batch_norm_relu-train/beta",
    "batch_norm_relu-eval/x", "global_average_pool/x",
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
    assert len(backwards) == len({name.split("/")[0] for name in LAYER_ROWS}) == 17
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
    y = L.batch_norm(var(x), bn_params(3), mode="train").value
    assert np.max(np.abs(y.mean(axis=(0, 2, 3)))) < 1e-12
    assert np.max(np.abs(y.var(axis=(0, 2, 3)) - 1)) < 1e-4  # epsilon effect


def test_batch_norm_gamma_zero_gives_beta():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2, 3, 3))
    p = bn_params(2, gamma=[0.0, 0.0], beta=[0.5, -1.5])
    y = L.batch_norm(var(x), p, mode="train").value
    assert np.all(y[:, 0] == 0.5)
    assert np.all(y[:, 1] == -1.5)


def test_batch_norm_eval_matches_hand_computation():
    # three samples of one channel, running stats set by hand
    x = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1)
    p = bn_params(1, gamma=[2.0], beta=[0.25], epsilon=1e-5)
    p.running_mean = np.array([0.5])
    p.running_var = np.array([4.0])
    y = L.batch_norm(var(x), p, mode="eval").value.reshape(-1)
    expected = (x.reshape(-1) - 0.5) / np.sqrt(4.0 + 1e-5) * 2.0 + 0.25
    assert np.max(np.abs(y - expected)) < 1e-15


def test_batch_norm_running_stats_ema():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 2, 3, 3)) + 5.0
    p = bn_params(2, momentum=0.1)
    L.batch_norm(var(x), p, mode="train")
    mu = x.mean(axis=(0, 2, 3))
    vr = x.var(axis=(0, 2, 3))
    assert np.allclose(p.running_mean, 0.9 * 0.0 + 0.1 * mu, rtol=0, atol=1e-15)
    assert np.allclose(p.running_var, 0.9 * 1.0 + 0.1 * vr, rtol=0, atol=1e-15)
    # eval mode reads them and leaves both untouched
    mean_before, var_before = p.running_mean.copy(), p.running_var.copy()
    L.batch_norm(var(x), p, mode="eval")
    assert np.array_equal(p.running_mean, mean_before)
    assert np.array_equal(p.running_var, var_before)


def test_batch_norm_degenerate_train_raises():
    with pytest.raises(ShapeError):
        L.batch_norm(var(np.ones((1, 2, 1, 1))), bn_params(2), mode="train")


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
        out = L.batch_norm(v, p, mode="train")
        return ad.total(ad.mul(out, r))

    assert ad.finite_difference_check(wrt_x, Tensor(x0), eps=1e-5) < 1e-6

    def wrt_gamma(v):
        p = L.BatchNormParams(v, var(b0))
        out = L.batch_norm(var(x0), p, mode="train")
        return ad.total(ad.mul(out, r))

    assert ad.finite_difference_check(wrt_gamma, Tensor(g0), eps=1e-5) < 1e-6

    def wrt_beta(v):
        p = L.BatchNormParams(var(g0), v)
        out = L.batch_norm(var(x0), p, mode="train")
        return ad.total(ad.mul(out, r))

    assert ad.finite_difference_check(wrt_beta, Tensor(b0), eps=1e-5) < 1e-6


def _bn_relu_step(op, x0, g0, b0, r, mode):
    """Output, running statistics and gradients of op(x, p, mode) under the loss sum(op * r)."""
    x, gamma, beta = (ad.Variable(a.copy(), requires_grad=True) for a in (x0, g0, b0))
    c = x0.shape[1]
    p = L.BatchNormParams(gamma, beta, running_mean=np.linspace(-0.2, 0.3, c, dtype=x0.dtype),
                          running_var=np.linspace(0.5, 2.0, c, dtype=x0.dtype))
    y = op(x, p, mode)
    out = y.value.copy()
    ad.backward(ad.total(ad.mul(y, ad.Variable(r))))
    return out, p.running_mean, p.running_var, x.grad, gamma.grad, beta.grad


@pytest.mark.parametrize("shape", [(16, 12, 16, 16), (4, 64, 28, 28)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_norm_relu_is_bit_identical_to_relu_of_batch_norm(shape, dtype, mode):
    rng = np.random.default_rng(sum(shape))
    x0 = (rng.standard_normal(shape) * 2 + 0.3).astype(dtype)
    g0 = (rng.standard_normal(shape[1]) + 1).astype(dtype)
    b0 = rng.standard_normal(shape[1]).astype(dtype)
    r = rng.standard_normal(shape).astype(dtype)
    fused = _bn_relu_step(L.batch_norm_relu, x0, g0, b0, r, mode)
    oracle = _bn_relu_step(lambda x, p, m: L.relu(L.batch_norm(x, p, m)), x0, g0, b0, r, mode)
    names = ("y", "running_mean", "running_var", "dx", "dgamma", "dbeta")
    for name, a, b in zip(names, fused, oracle):
        assert a.dtype == dtype and np.array_equal(a, b), name
    # the in-place arithmetic computes the closed form as written, bit for bit
    y, mu, var_, dx, dgamma, dbeta = oracle  # eval mode leaves the running statistics
    axes, c4 = (0, 2, 3), (None, slice(None), None, None)
    if mode == "train":
        mu, var_ = x0.mean(axis=axes), x0.var(axis=axes)
    inv = 1.0 / np.sqrt(var_ + dtype(1e-5))
    xhat = (x0 - mu[c4]) * inv[c4]
    assert np.array_equal(y, np.maximum(g0[c4] * xhat + b0[c4], 0))
    g = r * (y > 0)
    assert np.array_equal(dgamma, (g * xhat).sum(axis=axes))
    assert np.array_equal(dbeta, g.sum(axis=axes))
    if mode == "eval":
        assert np.array_equal(dx, g * (g0 * inv)[c4])
    else:
        dxhat = g * g0[c4]
        assert np.array_equal(dx, inv[c4] * (dxhat - dxhat.mean(axis=axes)[c4]
                                            - xhat * (dxhat * xhat).mean(axis=axes)[c4]))


def test_batch_norm_relu_keeps_no_batch_norm_output():
    # the closure holds x, mean, inv and the output itself: nothing the size
    # of x beyond y stays allocated after the forward
    x = var(np.random.default_rng(4).standard_normal((8, 16, 32, 32)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = L.batch_norm_relu(x, bn_params(16), mode="train")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held - y.value.nbytes < 0.25 * x.value.nbytes


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
