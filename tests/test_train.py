import collections
import tracemalloc

import numpy as np
import pytest

from wcnn import autodiff as ad
from wcnn import layers as L
from wcnn import model as M
from wcnn import train as TR
from wcnn.data import ImageRecord
from wcnn.seeding import SHUFFLE, stream_rng
from wcnn.tensor import ShapeError, Tensor, as_array


def make_param(values, name="p"):
    v = ad.Variable(Tensor(np.asarray(values, dtype=np.float64)), requires_grad=True, name=name)
    return v


# --- Adam -----------------------------------------------------------------------


def test_adam_first_step_closed_form():
    p = make_param([1.0, -2.0, 0.5])
    g = np.array([0.5, -1.0, 2.0])
    p.grad = g
    state = TR.AdamState(lr=0.01)
    TR.adam_step({"p": p}, state)
    # at t=1 the bias corrections cancel: m_hat = g, v_hat = g^2
    expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(p.value - expected)) < 1e-12


def test_adam_zero_gradient_keeps_parameters():
    # from fresh state a zero-gradient step is an exact no-op
    p = make_param([1.0, 2.0])
    p.grad = np.array([0.0, 0.0])
    state = TR.AdamState(lr=0.1)
    TR.adam_step({"p": p}, state)
    assert np.array_equal(p.value, np.array([1.0, 2.0]))
    assert np.all(state.m["p"] == 0.0) and np.all(state.v["p"] == 0.0)


def test_adam_zero_gradient_decays_moments():
    p = make_param([1.0, 2.0])
    p.grad = np.array([0.5, 0.5])
    state = TR.AdamState(lr=0.1)
    TR.adam_step({"p": p}, state)
    m_before, v_before = state.m["p"].copy(), state.v["p"].copy()
    p.grad = np.array([0.0, 0.0])
    TR.adam_step({"p": p}, state)
    assert np.array_equal(state.m["p"], m_before * 0.9)
    assert np.array_equal(state.v["p"], v_before * 0.999)


def test_adam_missing_gradient_is_zero():
    p = make_param([3.0])
    TR.adam_step({"p": p}, TR.AdamState())
    assert p.value.tolist() == [3.0]


def test_adam_missing_gradient_after_a_step_still_moves_by_the_first_moment():
    p = make_param([1.0, 2.0])
    p.grad = np.array([0.5, -0.5])
    state = TR.AdamState(lr=0.1)
    TR.adam_step({"p": p}, state)
    assert np.allclose(p.value, [0.9, 2.1], rtol=0, atol=1e-8)
    p1, m1, v1 = p.value.copy(), state.m["p"].copy(), state.v["p"].copy()
    p.grad = None
    TR.adam_step({"p": p}, state)
    m_hat, v_hat = 0.9 * m1 / (1 - 0.9**2), 0.999 * v1 / (1 - 0.999**2)
    expected = p1 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.value, expected, rtol=0, atol=1e-12)
    assert np.allclose(p.value, [0.833, 2.167], rtol=0, atol=1e-3)


def test_adam_nonfinite_gradient_aborts():
    p = make_param([1.0])
    p.grad = np.array([np.nan])
    state = TR.AdamState()
    before = p.value.copy()
    with pytest.raises(TR.NonFiniteGradientError) as exc:
        TR.adam_step({"p": p}, state)
    assert "p" in str(exc.value)
    assert np.array_equal(p.value, before)
    assert state.step == 0


@pytest.mark.parametrize("split", [np.inf, 0])
def test_adam_nonfinite_last_gradient_touches_nothing(monkeypatch, split):
    # a block of 4 elements leaves s (3 elements) the one parameter of the flat
    # block and walks a, b and c (12 each) by rows; the error names the first
    # offending parameter in dict order, whichever kind it is
    monkeypatch.setattr(TR, "_SPLIT_ADAM", split)
    monkeypatch.setattr(TR, "_ADAM_BLOCK", 4)
    for nans, first in ((("c",), "c"), (("s",), "s"), (("a", "s"), "a"), (("s", "c"), "s")):
        values = {"a": np.arange(12.0).reshape(6, 2), "s": np.array([1.0, -2.0, 3.0]),
                  "b": np.arange(12.0).reshape(6, 2) + 1, "c": np.arange(12.0).reshape(6, 2) + 2}
        params = {name: make_param(v, name) for name, v in values.items()}
        for p in params.values():
            p.grad = np.full(p.value.shape, 0.5)
        state = TR.AdamState(lr=0.1)
        TR.adam_step(params, state)  # so the moments are nonzero
        for name in nans:
            params[name].grad = np.full(params[name].value.shape, 0.25)
            params[name].grad.flat[-1] = np.nan
        before = {name: (p.value.copy(), state.m[name].copy(), state.v[name].copy())
                  for name, p in params.items()}
        with pytest.raises(TR.NonFiniteGradientError, match=f"'{first}'"):
            TR.adam_step(params, state)
        assert state.step == 1
        for name, p in params.items():
            for a, b in zip((p.value, state.m[name], state.v[name]), before[name]):
                assert np.array_equal(a, b), (nans, name)


def _adam_reference(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as one whole-array expression per moment and update: the bits
    every block and range of `adam_step` must repeat.  Returns new p, m, v."""
    m, v = m * b1, v * b2
    m += (1 - b1) * g
    v += (1 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return p - p.dtype.type(lr) * m_hat / (np.sqrt(v_hat) + p.dtype.type(eps)), m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_ranges_are_bit_identical_to_the_whole_array_expression(monkeypatch, dtype):
    # a gate of 0 splits every large parameter's rows into min(rows, 3) ranges
    # on the pool; a block of 8 elements walks them one or two rows at a time,
    # with a short last block, and leaves bias, frozen, scalar and late in the
    # flat block; a gate of inf and a large block make one flat call
    monkeypatch.setattr(L, "_CPUS", 3)
    shapes = {"conv": (5, 4, 3, 3), "fc": (6, 7), "late": (2, 3), "tall": (11, 4), "bias": (5,),
              "frozen": (3,), "scalar": ()}
    start = {k: np.random.default_rng(22).standard_normal(s).astype(dtype)
             for k, s in shapes.items()}
    for split, block in ((np.inf, 2**16), (0, 8), (0, 2**16), (np.inf, 8)):
        monkeypatch.setattr(TR, "_SPLIT_ADAM", split)
        monkeypatch.setattr(TR, "_ADAM_BLOCK", block)
        rng = np.random.default_rng(23)
        params = {k: ad.Variable(a.copy(), requires_grad=True) for k, a in start.items()
                  if k != "late"}
        want = {k: (a, np.zeros_like(a), np.zeros_like(a)) for k, a in start.items()}
        state = TR.AdamState(lr=0.01)
        for t in range(1, 5):
            if t == 2:  # a name joins mid-dict: the flat block regroups, keeping every moment
                params = {k: params[k] if k in params else ad.Variable(start[k].copy(), True)
                          for k in shapes}
            for k, p in params.items():
                p.grad = rng.standard_normal(shapes[k]).astype(dtype)
            params["frozen"].grad = None  # a zero gradient
            # a transposed view, as a conv weight gradient from the tap sum is
            grad = rng.standard_normal((4, 5, 3, 3)).astype(dtype)
            params["conv"].grad = grad.transpose(1, 0, 2, 3)
            assert not params["conv"].grad.flags.c_contiguous
            TR.adam_step(params, state)
            for k, p in params.items():
                g = np.zeros_like(p.value) if p.grad is None else p.grad
                want[k] = _adam_reference(want[k][0], g, *want[k][1:], t, lr=0.01)
                got = (p.value, state.m[k], state.v[k])
                for name, a, b in zip(("p", "m", "v"), got, want[k]):
                    assert a.dtype == dtype and np.array_equal(a, b), (name, k, t, split, block)


@pytest.fixture
def refusing_pool(monkeypatch):
    """The conv pool, made to fail on any submission."""
    def refuse(*args, **kwargs):
        raise AssertionError("desk-scale work was submitted to the pool")

    monkeypatch.setattr(L._POOL, "map", refuse)
    monkeypatch.setattr(L._POOL, "submit", refuse)


# the desk configuration of the README and `bench/workloads.py`
DESK = M.WaveletCnnConfig(levels=3, input_size=32, input_channels=1, channels=(12, 24, 32),
                          num_classes=6, precision="f32")


def test_desk_step_submits_nothing_to_the_pool(refusing_pool):
    # at the default gates every conv, batch norm and Adam update of the desk
    # configuration runs inline: a hand-off to the pool costs more than these
    # small arrays save
    model = M.build(DESK)
    rng = np.random.default_rng(24)
    batch = as_array(rng.standard_normal((32, 1, 32, 32)), "f32")
    logits = M.forward(model, batch[:16], mode="train")
    ad.backward(L.softmax_cross_entropy(logits, rng.integers(0, 6, 16)))
    TR.adam_step(model.params, TR.AdamState())
    M.forward(model, batch, mode="eval")  # `evaluate`'s default batch


def test_desk_training_is_batched_and_inline(monkeypatch, refusing_pool):
    # a 2-epoch desk run with augmentation and per-epoch eval, over images of
    # two source sizes: each batch is resized once per source shape and
    # normalized once, each eval chunk normalized once (and resized where its
    # images are not 32 px), and every Adam step is one flat call, because no
    # desk parameter is larger than a block
    calls = collections.Counter()
    for name in ("bilinear_resize", "global_contrast_normalization", "_adam_update"):
        def counted(*args, _name=name, _fn=getattr(TR, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(TR, name, counted)
    rng = np.random.default_rng(26)
    records = [ImageRecord(rng.random((1, size, size)), (i % 6,), f"r{i}")
               for i, size in enumerate([32, 32, 40] * 10)]
    train_set, eval_set = records[:20], records[20:]
    model = M.build(DESK)
    assert all(p.value.size <= TR._ADAM_BLOCK for p in model.params.values())
    cfg = TR.TrainConfig(epochs=2, batch_size=8, seed=0, augment=True, eval_every=1)
    TR.train(model, train_set, eval_set, cfg)

    steps = resizes = 0
    for epoch in range(cfg.epochs):
        order = stream_rng(cfg.seed, SHUFFLE, epoch).permutation(len(train_set))
        for idx in TR.iter_batches(order, cfg.batch_size):
            steps += 1
            resizes += len({train_set[i].pixels.shape for i in idx})
    chunks = [eval_set[at:at + cfg.batch_size] for at in range(0, len(eval_set), cfg.batch_size)]
    resizes += cfg.epochs * sum(any(r.pixels.shape[1] != 32 for r in c) for c in chunks)
    assert calls == {"bilinear_resize": resizes, "_adam_update": steps,
                     "global_contrast_normalization": steps + cfg.epochs * len(chunks)}


def test_paper_train_step_peak_memory(monkeypatch):
    # one training step of the default 224-px f32 model on a batch of 4, as
    # `bench/workloads.py`'s paper-train runs it, traced from after `build`:
    # every conv forms dW one tap at a time, with no per-image buffer of all
    # taps, and each stage's concat is written in place, so its arrays peak under
    # 260 MB (296 MB with both copies).  Two CPUs fix the tap ranges in flight
    monkeypatch.setattr(L, "_CPUS", 2)
    model = M.build(M.WaveletCnnConfig())
    rng = np.random.default_rng(25)
    records = [ImageRecord(rng.random((3, 224, 224)), (i,), f"r{i}") for i in range(4)]
    cfg = TR.TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=0, augment=True)
    tracemalloc.start()
    try:
        TR.train(model, records, [], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 260e6, f"{peak / 1e6:.1f} MB"


def test_paper_eval_forward_peak_memory(monkeypatch):
    # one eval forward of the default 224-px f32 model on a batch of 4, set up
    # as `test_paper_train_step_peak_memory`: untaped, every activation is
    # freed once the next block has read it, and each block's folded weights
    # once its conv has run, so its arrays peak under 100 MB
    monkeypatch.setattr(L, "_CPUS", 2)
    model = M.build(M.WaveletCnnConfig())
    rng = np.random.default_rng(25)
    records = [ImageRecord(rng.random((3, 224, 224)), (i,), f"r{i}") for i in range(4)]
    tracemalloc.start()
    try:
        TR.evaluate(model, records, batch_size=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, f"{peak / 1e6:.1f} MB"


def scalar_adam_reference(theta, lr, steps):
    """Plain-float Adam on f(theta) = ||theta||^2, written independently."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    theta = list(theta)
    for t in range(1, steps + 1):
        g = [2.0 * x for x in theta]
        for i in range(len(theta)):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            theta[i] -= lr * m_hat / (v_hat**0.5 + eps)
    return theta


def test_adam_quadratic_bowl():
    reference = scalar_adam_reference([1.0, 1.0], lr=0.1, steps=100)
    p = make_param([1.0, 1.0])
    state = TR.AdamState(lr=0.1)
    for _ in range(100):
        p.grad = 2.0 * p.value
        TR.adam_step({"p": p}, state)
    assert np.max(np.abs(p.value - np.array(reference))) < 1e-12
    assert np.linalg.norm(p.value) < 0.05


# --- preprocessing -----------------------------------------------------------------


def test_gcn_constant_image_is_zero():
    assert np.array_equal(TR.global_contrast_normalization(np.full((1, 4, 4), 0.7)),
                          np.zeros((1, 4, 4)))


def test_gcn_standardizes():
    rng = np.random.default_rng(0)
    img = rng.random((1, 3, 8, 8))
    out = TR.global_contrast_normalization(img)
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12
    again = TR.global_contrast_normalization(out)
    assert np.max(np.abs(again - out)) < 1e-10  # idempotent


def test_resize_target_is_bounded_whether_set_or_default():
    # the default, input_size * 256 // 224, is held to the bound a set resize_to is
    assert TR.TrainConfig().resolved_resize(3584) == 4096
    assert TR.TrainConfig(resize_to=4096).resolved_resize(224) == 4096
    for resize_to, input_size in ((0, 3585), (0, 8192), (4097, 224), (223, 224)):
        with pytest.raises(ShapeError, match=r"resize_to must be 0 or in \[\d+, 4096\]"):
            TR.TrainConfig(resize_to=resize_to).resolved_resize(input_size)


def _resize_reference(image, out_h, out_w):
    """Bilinear resize of one [c, h, w] image, the per-image expression the
    batched `bilinear_resize` must repeat."""
    c, h, w = image.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    top = image[:, y0][:, :, x0] * (1 - wx) + image[:, y0][:, :, x1] * wx
    bottom = image[:, y1][:, :, x0] * (1 - wx) + image[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bottom * wy


def _gcn_reference(image):
    image = np.ascontiguousarray(image)
    return (image - image.mean()) / max(float(image.std()), 1e-8)


@pytest.mark.parametrize("channels, crop, resize, sizes, n", [
    (1, 32, 36, (32,), 6), (3, 32, 40, (32,), 6), (3, 224, 256, (224,), 4),
    (1, 32, 36, (32, 48), 3)])
def test_batched_preprocessing_matches_the_per_image_expressions(channels, crop, resize, sizes, n):
    # image by image: resize, crop and flip from the image's own stream, then
    # normalize a contiguous copy, cast to either precision
    rng = np.random.default_rng(channels + crop + resize + len(sizes))
    images = [rng.random((channels, s, s)) for _ in range(n) for s in sizes]

    def streams():
        return [np.random.default_rng([27, i]) for i in range(len(images))]

    want, flips = [], set()
    for image, stream in zip(images, streams()):
        out = _resize_reference(image, resize, resize)
        oy = int(stream.integers(0, resize - crop + 1))
        ox = int(stream.integers(0, resize - crop + 1))
        out = out[:, oy:oy + crop, ox:ox + crop]
        flips.add(flip := stream.random() < 0.5)
        want.append(_gcn_reference(out[:, :, ::-1] if flip else out))
    assert flips == {False, True}
    augmented = TR.global_contrast_normalization(TR.augment(images, streams(), resize, crop, True))
    # without augmentation, as `evaluate` prepares a chunk: resized only where needed
    plain = TR.global_contrast_normalization(TR._stacked(images, crop))
    want_plain = [_gcn_reference(image if image.shape[1] == crop else
                                 _resize_reference(image, crop, crop)) for image in images]
    for precision in ("f32", "f64"):
        for got, expected in ((augmented, want), (plain, want_plain)):
            got = as_array(got, precision)
            for i, w in enumerate(expected):
                assert np.array_equal(got[i], as_array(w, precision)), (i, precision)


def test_bilinear_resize_constant():
    out = TR.bilinear_resize(np.full((1, 5, 7), 0.3), 12, 9)
    assert out.shape == (1, 12, 9)
    assert np.max(np.abs(out - 0.3)) < 1e-12


def test_augment_crop_offsets_cover_range():
    img = np.zeros((1, 8, 8))
    img[0, 0, :] = 1.0  # marker row to track the vertical offset
    seen = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        oy = int(rng.integers(0, 3))  # the draw augment() makes first
        out, = TR.augment([img], [np.random.default_rng(seed)], resize_to=8, crop_to=6,
                          flip=False)
        assert out.shape == (1, 6, 6)
        seen.add(oy)
    assert seen == {0, 1, 2}  # inclusive range [0, resize - crop]


def test_augment_rejects_oversized_crop():
    with pytest.raises(ShapeError):
        TR.augment([np.zeros((1, 8, 8))], [np.random.default_rng(0)], resize_to=8, crop_to=9,
                   flip=True)


# --- datasets for the loop tests ------------------------------------------------


def separable_records(n_per_class=16, size=8, noise=0.05, seed=0):
    """Two classes: bright top half vs bright bottom half."""
    rng = np.random.default_rng(seed)
    records = []
    for label in (0, 1):
        for i in range(n_per_class):
            img = rng.normal(0.2, noise, (1, size, size))
            if label == 0:
                img[0, : size // 2] += 0.6
            else:
                img[0, size // 2:] += 0.6
            records.append(ImageRecord(np.clip(img, 0, 1), (label,), f"c{label}_{i}"))
    return records


def tiny_model(size=8, classes=2, precision="f64", seed=0):
    cfg = M.WaveletCnnConfig(levels=2, input_size=size, input_channels=1,
                             channels=(4, 8), blocks_per_stage=1, num_classes=classes,
                             precision=precision, init_seed=seed)
    return M.build(cfg)


def quick_cfg(**kw):
    base = dict(epochs=5, batch_size=8, lr=3e-3, seed=0, augment=False, eval_every=1)
    base.update(kw)
    return TR.TrainConfig(**base)


# --- the epoch loop ---------------------------------------------------------------


def test_batch_iteration_preserves_pairing():
    records = separable_records(6)
    cfg = quick_cfg()
    order = stream_rng(cfg.seed, SHUFFLE, 0).permutation(len(records))
    for batch_idx in TR.iter_batches(order, cfg.batch_size):
        chunk = [records[i] for i in batch_idx]
        targets = TR._targets(chunk, "softmax", 2)
        for rec, t in zip(chunk, targets):
            assert rec.labels[0] == t  # label rides with its image


def test_one_image_tail_joins_the_previous_batch():
    # a 1-image batch cannot train batch norm once the last stage is 1x1, so
    # the tail folds into the batch before it and every image still trains once
    for n, sizes in [(5, [5]), (6, [4, 2]), (8, [4, 4]), (9, [4, 5]), (1, [1])]:
        batches = list(TR.iter_batches(np.arange(n), 4))
        assert [len(b) for b in batches] == sizes
        assert np.array_equal(np.concatenate(batches), np.arange(n))
    records = separable_records()
    model = M.build(M.WaveletCnnConfig(levels=3, input_size=8, input_channels=1,
                                       channels=(4, 4, 4), blocks_per_stage=1,
                                       num_classes=2, precision="f64"))
    report = TR.train(model, records[:5], records[16:18], quick_cfg(epochs=1, batch_size=4))
    assert [split for _, split, _, _ in report.rows] == ["train", "test"]


def test_first_batch_loss_near_log_classes():
    # class-balanced batch: any class-constant logit bias of the untrained
    # network cancels, leaving the uniform-prediction value log(C)
    records = separable_records()
    model = tiny_model()
    from wcnn import layers as L

    batch_records = records[:4] + records[16:20]
    batch = as_array(
        TR.global_contrast_normalization(np.stack([r.pixels for r in batch_records])), "f64")
    logits = M.forward(model, batch, mode="train")
    labels = np.array([r.labels[0] for r in batch_records])
    loss = L.softmax_cross_entropy(logits, labels).value.item()
    assert abs(loss - np.log(2)) < 0.1 * np.log(2)


def test_training_reaches_full_accuracy_on_separable_task():
    records = separable_records()
    train_set = records[::2]
    test_set = records[1::2]
    model = tiny_model()
    report = TR.train(model, train_set, test_set, quick_cfg(epochs=30))
    train_accs = [acc for _, split, _, acc in report.rows if split == "train"]
    assert max(train_accs) == 100.0
    assert report.best_test_acc == 100.0
    assert report.loss_monotone_after_warmup


def test_training_determinism():
    records = separable_records()

    def run():
        model = tiny_model()
        report = TR.train(model, records[::2], records[1::2], quick_cfg(epochs=3))
        first_loss = next(l for _, s, l, _ in report.rows if s == "train")
        return first_loss, {k: v.value.copy() for k, v in model.params.items()}

    loss_a, params_a = run()
    loss_b, params_b = run()
    assert abs(loss_a - loss_b) < 1e-12
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name]), name


def test_training_with_augmentation_runs(monkeypatch):
    records = separable_records()
    model = tiny_model()
    held = []  # what each step hands Adam: every parameter's value and gradient

    def adam_step(params, state):
        held.extend(a for p in params.values() for a in (p.value, p.grad))
        step(params, state)

    step = TR.adam_step
    monkeypatch.setattr(TR, "adam_step", adam_step)
    report = TR.train(model, records[::2], records[1::2],
                      quick_cfg(epochs=2, augment=True, resize_to=9))
    assert len(report.rows) > 0
    # the tape, Adam and batch norm hold plain arrays
    held += [s for _, bn in model.blocks.values() for s in (bn.running_mean, bn.running_var)]
    assert held and {type(a) for a in held} == {np.ndarray}


def test_non_finite_loss_diagnostic():
    records = separable_records()
    model = tiny_model()
    model.params["head.fc.weight"].value[:] = np.nan
    with pytest.raises(TR.NonFiniteLossError, match="epoch 0"):
        TR.train(model, records[::2], records[1::2], quick_cfg(epochs=1))


def test_bad_label_fails_before_the_first_step(monkeypatch):
    # the targets are encoded once, so a bad label anywhere stops training before any step
    records = separable_records()[::2]
    last = records[-1]
    records[-1] = ImageRecord(last.pixels, (0, 1), last.path)
    steps = []
    monkeypatch.setattr(TR, "adam_step", lambda params, state: steps.append(state.step))
    with pytest.raises(ShapeError, match="exactly one label"):
        TR.train(tiny_model(), records, [], quick_cfg(epochs=1, batch_size=2))
    assert steps == []


def test_evaluate_constant_predictor_hits_chance():
    records = separable_records()
    model = tiny_model()
    model.params["head.fc.weight"].value[:] = 0.0
    model.params["head.fc.bias"].value[:] = 0.0
    result = TR.evaluate(model, records)
    assert result["accuracy"] == 50.0  # argmax ties resolve to class 0; balanced set


def test_evaluate_multilabel_bundle_keys():
    cfg = M.WaveletCnnConfig(levels=2, input_size=8, input_channels=1,
                             channels=(4, 8), blocks_per_stage=1, num_classes=3,
                             head="multilabel", precision="f64")
    model = M.build(cfg)
    records = [ImageRecord(np.random.default_rng(i).random((1, 8, 8)), (i % 3,), f"r{i}")
               for i in range(6)]
    result = TR.evaluate(model, records)
    for key in ("C-P", "C-R", "C-F1", "O-P", "O-R", "O-F1", "accuracy"):
        assert key in result


def test_checkpoint_written_for_best_epoch(tmp_path):
    records = separable_records()
    model = tiny_model()
    path = tmp_path / "best.wcnn"
    TR.train(model, records[::2], records[1::2],
             quick_cfg(epochs=3, checkpoint_path=str(path)))
    loaded = M.load_model(path)
    assert loaded.config == model.config


def test_lr_schedule():
    constant = TR.TrainConfig()
    assert constant.lr_at(0) == constant.lr_at(49) == constant.lr
    stepped = TR.TrainConfig(lr=1e-2, lr_decay_every=10, lr_decay_factor=0.5)
    assert stepped.lr_at(0) == 1e-2
    assert stepped.lr_at(9) == 1e-2
    assert stepped.lr_at(10) == 5e-3
    assert stepped.lr_at(25) == 2.5e-3
    with pytest.raises(ShapeError):
        TR.TrainConfig(lr_decay_factor=0.0).validate()


def test_training_with_step_decay_runs():
    records = separable_records()
    model = tiny_model()
    report = TR.train(model, records[::2], records[1::2],
                      quick_cfg(epochs=4, lr_decay_every=2, lr_decay_factor=0.5))
    assert report.header["lr_schedule"] == "step(every=2, factor=0.5)"
    assert len(report.rows) > 0


def test_report_text_format():
    records = separable_records()
    model = tiny_model()
    report = TR.train(model, records[::2], records[1::2], quick_cfg(epochs=2))
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == "# training report"
    assert any(l.startswith("# adam.lr = ") for l in lines)
    data_rows = [l for l in lines if l and not l.startswith("#")]
    assert data_rows[0] == "epoch\tsplit\tloss\tacc"
    assert data_rows[1].startswith("0\ttrain\t")
    assert "# summary" in lines
