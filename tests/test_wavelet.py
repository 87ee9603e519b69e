import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcnn import autodiff as ad
from wcnn import layers as L
from wcnn import wavelet as W
from wcnn.tensor import ShapeError, Tensor, as_array


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / denom


def one_level(x):
    """(LL, LH, HL, HH) of one analysis level."""
    pyr = W.decompose(Tensor(x), 1)
    return (pyr.lowpass, *pyr.levels[0])


# --- the Haar taps --------------------------------------------------------------


def test_haar_is_orthonormal():
    lo, hi = np.asarray(W.HAAR_LOWPASS), np.asarray(W.HAAR_HIGHPASS)
    assert abs(lo @ lo - 1) < 1e-15
    assert abs(hi @ hi - 1) < 1e-15
    assert abs(lo @ hi) < 1e-15


# --- generalized convolve-then-downsample ----------------------------------------


def test_conv_pool_identity():
    x = Tensor([3.0, -1.0, 2.0])
    y = W.generalized_conv_pool(x, [1.0], 1)
    assert np.array_equal(y.data, x.data)


def test_conv_pool_pairwise_average():
    y = W.generalized_conv_pool(Tensor([1.0, 2.0, 3.0, 4.0]), [0.5, 0.5], 2)
    assert y.data.tolist() == [1.5, 3.5]


def test_conv_pool_composite_kernel_equals_conv_then_pool():
    # composite kernel = plain kernel convolved with the averaging kernel
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(8, 40)) * 2
        x = Tensor(rng.standard_normal(n))
        w = rng.standard_normal(int(rng.integers(1, 6)))
        avg = np.array([0.5, 0.5])
        composite = np.convolve(w, avg)
        lhs = W.generalized_conv_pool(x, composite, 2)
        conv = W.generalized_conv_pool(x, w, 1)
        rhs = W.generalized_conv_pool(conv, avg, 2)
        assert rel_err(lhs.data, rhs.data) < 1e-12


def test_conv_pool_kernel_too_wide():
    with pytest.raises(ShapeError):
        W.generalized_conv_pool(Tensor([1.0, 2.0]), [1.0, 1.0, 1.0], 1)


# --- one analysis level ----------------------------------------------------------


def test_dwt1d_constant_kills_highpass():
    # rows constant along width: both width-highpass bands vanish
    ll, lh, hl, hh = one_level([[1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0]])
    assert np.allclose(ll.data, [[4.0, 4.0]], atol=1e-15)
    assert np.allclose(hl.data, [[-2.0, -2.0]], atol=1e-15)
    assert np.max(np.abs(lh.data)) == 0.0 and np.max(np.abs(hh.data)) == 0.0


def test_dwt1d_alternating_kills_lowpass():
    # rows alternating along width: both width-lowpass bands vanish
    ll, lh, hl, hh = one_level([[1.0, -1.0, 1.0, -1.0], [2.0, -2.0, 2.0, -2.0]])
    assert np.max(np.abs(ll.data)) == 0.0 and np.max(np.abs(hl.data)) == 0.0
    assert np.allclose(lh.data, [[3.0, 3.0]], atol=1e-15)
    assert np.allclose(hh.data, [[-1.0, -1.0]], atol=1e-15)


def test_dwt1d_odd_extent_rejected():
    for shape in ((2, 3), (3, 2)):
        with pytest.raises(ShapeError):
            W.decompose(Tensor(np.zeros(shape)), 1)


def test_decompose_one_level_matches_generalized_conv_pool():
    # each band is the separable Haar kernel (height taps x width taps)
    # correlated with the input and kept at stride 2
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 8, 8))
    lo, hi = W.HAAR_LOWPASS, W.HAAR_HIGHPASS
    kernels = (np.outer(lo, lo), np.outer(lo, hi), np.outer(hi, lo), np.outer(hi, hi))
    for band, k in zip(one_level(x), kernels):
        assert rel_err(band.data, W.generalized_conv_pool(Tensor(x), k, 2).data) < 1e-15


def test_dwt2d_constant_image():
    c = 0.75
    ll, lh, hl, hh = one_level(np.full((4, 4), c))
    assert np.allclose(ll.data, 2 * c, atol=1e-15)
    for band in (lh, hl, hh):
        assert np.max(np.abs(band.data)) < 1e-15


def test_dwt2d_hand_computed_2x2():
    # separable Haar on [[a,b],[c,d]]: width pass then height pass.
    # first letter = height filter, second = width filter.
    a, b, c, d = 2.0, -1.0, 0.5, 3.0
    ll, lh, hl, hh = one_level([[a, b], [c, d]])
    assert abs(ll.data.item() - (a + b + c + d) / 2) < 1e-15
    assert abs(lh.data.item() - ((a - b) + (c - d)) / 2) < 1e-15
    assert abs(hl.data.item() - ((a + b) - (c + d)) / 2) < 1e-15
    assert abs(hh.data.item() - ((a - b) - (c - d)) / 2) < 1e-15


def test_dwt2d_energy_conservation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 8, 8))
    total = sum(float((b.data**2).sum()) for b in one_level(x))
    assert abs(total - float((x**2).sum())) / float((x**2).sum()) < 1e-12


# --- pyramid ------------------------------------------------------------------------


def test_decompose_extents_224():
    x = Tensor(np.zeros((1, 1, 224, 224)))
    pyr = W.decompose(x, 5)
    extents = [lh.shape[-1] for lh, _, _ in pyr.levels]
    assert extents == [112, 56, 28, 14, 7]
    assert pyr.lowpass.shape[-2:] == (7, 7)


def test_decompose_divisibility_message():
    with pytest.raises(ShapeError, match="pad to 32x32"):
        W.decompose(Tensor(np.zeros((1, 1, 30, 30))), 3)


def test_levels_below_one_rejected_alike():
    x = np.zeros((1, 1, 8, 8))
    for levels in (0, -1):
        for call in (lambda: W.decompose(Tensor(x), levels),
                     lambda: W.decompose_variables(ad.Variable(Tensor(x)), levels)):
            with pytest.raises(ShapeError, match=f"levels must be >= 1, got {levels}$"):
                call()


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
def test_reconstruct_inverts_decompose(levels):
    rng = np.random.default_rng(5 + levels)
    x = rng.standard_normal((1, 1, 32, 32))
    pyr = W.decompose(Tensor(x), levels)
    back = W.reconstruct(pyr)
    assert rel_err(back.data, x) < 1e-10


def test_energy_conserved_across_pyramid():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 32, 32))
    for levels in range(1, 6):
        pyr = W.decompose(Tensor(x), levels)
        assert abs(pyr.energy() - float((x**2).sum())) / float((x**2).sum()) < 1e-10


def test_zero_pyramid_reconstructs_zero():
    pyr = W.decompose(Tensor(np.zeros((1, 1, 16, 16))), 2)
    assert np.max(np.abs(W.reconstruct(pyr).data)) == 0.0


@pytest.mark.parametrize("shape", [(), (8,)])
def test_rank_below_two_rejected(shape):
    x = np.zeros(shape)
    for call in (lambda: W.decompose(Tensor(x), 1),
                 lambda: W.decompose_variables(ad.Variable(Tensor(x)), 1)):
        with pytest.raises(ShapeError, match=f"rank {len(shape)}$"):
            call()


def test_reconstruct_rejects_malformed_pyramid():
    pyr = W.decompose(Tensor(np.zeros((1, 1, 8, 8))), 2)
    lh, hl, hh = pyr.levels[0]
    pyr.levels[0] = (lh, Tensor(np.zeros((1, 1, 4, 2))), hh)
    with pytest.raises(ShapeError, match="malformed pyramid"):
        W.reconstruct(pyr)


def test_impulse_roundtrip():
    x = np.zeros((1, 1, 8, 8))
    x[0, 0, 3, 5] = 1.0
    back = W.reconstruct(W.decompose(Tensor(x), 1))
    assert rel_err(back.data, x) < 1e-12


def test_lowpass_band_is_twice_average_pool():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 8, 8))
    ll = one_level(x)[0]
    pooled = L.average_pool(ad.Variable(Tensor(x)), 2).value
    assert rel_err(ll.data, 2.0 * pooled) < 1e-12


# --- lowpass-only chain --------------------------------------------------------------


def test_cnn_reduction_identity():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    y = W.cnn_reduction(x, [])
    assert np.array_equal(y.data, x.data)


def test_cnn_reduction_with_averaging_kernels_is_average_pool():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 1, 16, 16))
    avg = np.full((2, 2), 0.25)
    y = W.cnn_reduction(Tensor(x), [avg, avg])
    pooled = L.average_pool(L.average_pool(ad.Variable(Tensor(x)), 2), 2).value
    assert rel_err(y.data, pooled) < 1e-12


def test_cnn_reduction_haar_lowpass_gains_two_per_level():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 1, 16, 16))
    k = np.outer(W.HAAR_LOWPASS, W.HAAR_LOWPASS)
    for levels in (1, 2, 3):
        y = W.cnn_reduction(Tensor(x), [k] * levels)
        pooled = ad.Variable(Tensor(x))
        for _ in range(levels):
            pooled = L.average_pool(pooled, 2)
        assert rel_err(y.data, (2.0**levels) * pooled.value) < 1e-12


def test_cnn_reduction_equals_strided_conv_chain():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 1, 16, 16))
    k1 = rng.standard_normal((3, 3))
    k2 = rng.standard_normal((3, 3))
    h = ad.Variable(Tensor(x))
    for k in (k1, k2):
        # conv2d pads by k // 2: its step is the reduction step of its input padded by one
        want = W.generalized_conv_pool(np.pad(h.value, ((0, 0), (0, 0), (1, 1), (1, 1))), k, 2)
        p = L.Conv2dParams(ad.Variable(Tensor(k.reshape(1, 1, 3, 3))), stride=2)
        h = L.conv2d(h, p)
        assert rel_err(want.data, h.value) < 1e-12


# --- autodiff bridge -----------------------------------------------------------------


def test_decompose_variables_values_match_pyramid():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 16, 16))
    stacks = W.decompose_variables(ad.Variable(Tensor(x)), 3)
    pyr = W.decompose(Tensor(x), 3)
    for t, stack in enumerate(stacks):
        lh, hl, hh = pyr.levels[t]
        expected = np.concatenate([lh.data, hl.data, hh.data], axis=1)
        assert np.array_equal(stack.value, expected)


def test_decompose_adjoint_identity():
    # <decompose(x), y> == <x, adjoint(y)>; for orthonormal filters the adjoint
    # of the analysis chain is the synthesis chain used by the backward closures
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 2, 16, 16))
    leaf = ad.Variable(Tensor(x), requires_grad=True)
    stacks = W.decompose_variables(leaf, 2)
    ys = [rng.standard_normal(s.value.shape) for s in stacks]
    loss = None
    for s, y in zip(stacks, ys):
        term = ad.total(ad.mul(s, ad.Variable(Tensor(y))))
        loss = term if loss is None else ad.add(loss, term)
    ad.backward(loss)
    lhs = sum(float((s.value * y).sum()) for s, y in zip(stacks, ys))
    rhs = float((x * leaf.grad).sum())
    assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-12


def test_decompose_variables_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 1, 8, 8))

    def f(v):
        stacks = W.decompose_variables(v, 2)
        loss = None
        for s in stacks:
            term = ad.total(ad.mul(s, s))
            loss = term if loss is None else ad.add(loss, term)
        return loss

    assert ad.finite_difference_check(f, Tensor(x), eps=1e-5) < 1e-6


# --- the in-place, image-split transform against the unsplit one -------------------
#
# The oracle is the transform before it wrote into preallocated arrays and ran
# over image ranges: each butterfly forms its products twice and returns new
# arrays, synthesis copies them into place, and the subband stacks are
# concatenated.  The same products meet the same add and subtract, so every
# band must match it bit for bit.


def _butterfly_ref(a, b):
    return a * W._S + b * W._S, a * W._S - b * W._S


def _analysis_ref(x):
    lo, hi = _butterfly_ref(x[..., 0::2], x[..., 1::2])
    ll, hl = _butterfly_ref(lo[..., 0::2, :], lo[..., 1::2, :])
    lh, hh = _butterfly_ref(hi[..., 0::2, :], hi[..., 1::2, :])
    return ll, lh, hl, hh


def _synthesis_ref(ll, lh, hl, hh):
    *n, h, w = ll.shape
    lo, hi = np.empty((*n, 2 * h, w), ll.dtype), np.empty((*n, 2 * h, w), ll.dtype)
    out = np.empty((*n, 2 * h, 2 * w), ll.dtype)
    lo[..., 0::2, :], lo[..., 1::2, :] = _butterfly_ref(ll, hl)
    hi[..., 0::2, :], hi[..., 1::2, :] = _butterfly_ref(lh, hh)
    out[..., 0::2], out[..., 1::2] = _butterfly_ref(lo, hi)
    return out


def _transform_reference(x, levels):
    """Per-level (LH, HL, HH), the low band, the reconstruction and, for NCHW
    input, the subband stacks, all from the oracle."""
    low, details = x, []
    for _ in range(levels):
        low, *bands = _analysis_ref(low)
        details.append(bands)
    back = low
    for bands in reversed(details):
        back = _synthesis_ref(back, *bands)
    stacks = [np.concatenate(b, axis=1) for b in details] if x.ndim == 4 else []
    return [a for b in details for a in b] + [low, back] + stacks


def _transform(x, levels):
    """`_transform_reference`'s arrays from `decompose`, `reconstruct` and
    `decompose_variables`."""
    pyr = W.decompose(Tensor(x), levels)
    back = W.reconstruct(pyr).data
    stacks = [s.value for s in W.decompose_variables(ad.Variable(x), levels)] if x.ndim == 4 else []
    return [b.data for bands in pyr.levels for b in bands] + [pyr.lowpass.data, back] + stacks


def _assert_bits(got, want, where):
    assert len(got) == len(want), where
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f"{where}, array {i}"


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("lead", [(), (1,), (5,), (8,), (1, 2), (5, 2), (8, 2)])
def test_transform_matches_the_unsplit_oracle_at_any_cpu_count(monkeypatch, lead, dtype):
    # the gate forced to 0 splits every batch of two or more images into one
    # range per CPU; rank 2 is one image and never splits
    x = as_array(np.random.default_rng(20).standard_normal((*lead, 16, 24)), dtype)
    want = _transform_reference(x, 3)
    ranges, pool_map = [], L._POOL.map

    def counted_map(fn, starts, stops):
        ranges.append(len(starts))
        return pool_map(fn, starts, stops)

    monkeypatch.setattr(L._POOL, "map", counted_map)
    monkeypatch.setattr(W, "_SPLIT_HAAR", 0)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(L, "_CPUS", cpus)
        ranges.clear()
        _assert_bits(_transform(x, 3), want, f"cpus={cpus}")
        n = lead[0] if lead else 1
        assert set(ranges) == ({min(n, cpus)} if min(n, cpus) > 1 else set()), f"cpus={cpus}"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_transform_generated_shapes_match_the_oracle(data):
    levels = data.draw(st.integers(1, 3), label="levels")
    lead = data.draw(st.lists(st.integers(1, 6), max_size=2), label="leading axes")
    extent = [data.draw(st.integers(1, 3), label=name) << levels for name in ("h", "w")]
    dtype = data.draw(st.sampled_from(["f32", "f64"]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = as_array(rng.standard_normal((*lead, *extent)), dtype)
    want = _transform_reference(x, levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(L, "_CPUS", data.draw(st.integers(1, 4), label="cpus"))
        for gate in (np.inf, 0):
            mp.setattr(W, "_SPLIT_HAAR", gate)
            _assert_bits(_transform(x, levels), want, f"gate={gate}")


def test_butterfly_writes_into_given_arrays():
    a, b = np.array([3.0, -1.0]), np.array([1.0, 2.0])
    lo, hi = np.empty(2), np.empty(2)
    got = W._butterfly(a, b, lo, hi)
    assert got[0] is lo and got[1] is hi
    want = _butterfly_ref(a, b)
    assert np.array_equal(lo, want[0]) and np.array_equal(hi, want[1])
    assert a.tolist() == [3.0, -1.0] and b.tolist() == [1.0, 2.0]
