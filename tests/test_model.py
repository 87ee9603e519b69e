from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcnn import autodiff as ad
from wcnn import layers as L
from wcnn import model as M
from wcnn import train as TR
from wcnn.data import ImageRecord
from wcnn.tensor import ShapeError, Tensor


def tiny_config(**kw):
    base = dict(levels=2, input_size=32, input_channels=3, channels=(8, 16),
                num_classes=3, precision="f64")
    base.update(kw)
    return M.WaveletCnnConfig(**base)


def census_walker(cfg: M.WaveletCnnConfig) -> int:
    """Closed-form trainable-parameter count from the configuration alone."""
    sched = cfg.channels if cfg.channels else M.DEFAULT_CHANNELS[: cfg.levels]
    total = 0
    prev = cfg.input_channels
    for out in sched:
        total += out * prev * 9  # stride-2 conv, 3x3 kernel, no bias
        total += 2 * out  # batch norm gamma/beta
        width = out
        if not cfg.ablated:
            proj = max(1, int(out * cfg.proj_fraction + 0.5))
            total += proj * (3 * cfg.input_channels)  # 1x1 projection
            total += 2 * proj
            width = out + proj
        for _ in range(cfg.blocks_per_stage):
            total += out * width * 9
            total += 2 * out
            width = out
        prev = out
    feat = sched[-1]
    if cfg.embedding_dim:
        total += cfg.embedding_dim * feat + cfg.embedding_dim
        feat = cfg.embedding_dim
    total += cfg.num_classes * feat + cfg.num_classes
    return total


# --- construction and forward shapes ---------------------------------------------


def test_forward_logit_shape():
    model = M.build(tiny_config())
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 32, 32)), dtype="f64")
    logits = M.forward(model, x, mode="eval")
    assert logits.value.shape == (2, 3)


def test_injection_extents_default_224():
    model = M.build(M.WaveletCnnConfig())
    assert model.injection_extents == {1: 112, 2: 56, 3: 28, 4: 14, 5: 7}


def test_config_validation():
    with pytest.raises(ShapeError):
        M.build(tiny_config(input_size=30))  # not divisible by 2^levels
    with pytest.raises(ShapeError):
        M.build(tiny_config(channels=(8, 16, 32)))  # schedule/stage mismatch
    with pytest.raises(ShapeError):
        M.build(tiny_config(levels=6))
    with pytest.raises(ShapeError):
        M.build(tiny_config(head="ranking"))


def test_forward_rejects_wrong_batch():
    model = M.build(tiny_config())
    with pytest.raises(ShapeError):
        M.forward(model, Tensor(np.zeros((1, 3, 16, 16)), dtype="f64"))
    with pytest.raises(ShapeError):
        M.forward(model, Tensor(np.zeros((1, 3, 32, 32)), dtype="f32"))


# --- parameter accounting ----------------------------------------------------------


def test_param_count_matches_census_walker():
    configs = [
        tiny_config(),
        tiny_config(ablated=True),
        tiny_config(levels=3, channels=(8, 16, 24), blocks_per_stage=1),
        M.WaveletCnnConfig(),  # default 5-level
        M.WaveletCnnConfig(embedding_dim=2048),
        M.WaveletCnnConfig(levels=4, channels=(64, 128, 256, 512), input_channels=1,
                           num_classes=47),
    ]
    for cfg in configs:
        total, breakdown = M.param_count(M.build(cfg))
        assert total == census_walker(cfg), cfg
        assert total == sum(n for _, n in breakdown)


def test_param_count_layer_examples():
    # stage1.down for 3 -> 8 channels: 8*3*9 = 216; its norm: 2*8 = 16
    model = M.build(tiny_config())
    breakdown = dict(M.param_count(model)[1])
    assert breakdown["stage1.down"] == 216
    assert breakdown["stage1.down.bn"] == 16


@pytest.mark.parametrize("ablated, embedding_dim", [(False, 0), (True, 0), (False, 5)],
                         ids=["full", "ablated", "embedding"])
def test_every_declared_parameter_learns(ablated, embedding_dim):
    # no parameter that does nothing: after the backward of one f64 desk train
    # step, every parameter's gradient stands well above rounding noise (here a
    # conv bias under batch norm read 6.5e-19 to 1.0e-17, all else 1.4e-3 or more)
    cfg = replace(DESK, precision="f64", ablated=ablated, embedding_dim=embedding_dim)
    model = M.build(cfg)
    x = np.random.default_rng(20).standard_normal((8, 1, 32, 32))
    logits = M.forward(model, x, "train")
    ad.backward(L.softmax_cross_entropy(logits, np.arange(8) % cfg.num_classes))
    for name, p in model.params.items():
        assert np.max(np.abs(p.grad)) > 1e-8, name


def test_default_config_under_20m():
    total, _ = M.param_count(M.build(M.WaveletCnnConfig()))
    assert total < 20_000_000
    with_embedding, _ = M.param_count(M.build(M.WaveletCnnConfig(embedding_dim=2048)))
    assert with_embedding < 20_000_000
    assert with_embedding > total


def test_no_parameters_from_fixed_filters():
    model = M.build(tiny_config())
    assert all("wavelet" not in n and "filter" not in n for n in model.params)
    # forward with and without the analysis branch must not change param sets
    ablated = M.ablate_to_plain_cnn(tiny_config())
    assert set(ablated.params) <= set(model.params)


def test_increasing_levels_only_adds_the_new_stage():
    cfg3 = tiny_config(levels=3, channels=(8, 16, 24))
    cfg2 = tiny_config(levels=2, channels=(8, 16))
    b2 = dict(M.param_count(M.build(cfg2))[1])
    b3 = dict(M.param_count(M.build(cfg3))[1])
    changed = {k for k in set(b2) | set(b3) if b2.get(k) != b3.get(k)}
    assert all(k.startswith("stage3.") or k.startswith("head.") for k in changed)
    # the head only changes because the final stage width moved to 24
    assert {k for k in changed if not k.startswith("head.")} == {
        "stage3.down", "stage3.down.bn", "stage3.proj", "stage3.proj.bn",
        "stage3.conv1", "stage3.conv1.bn", "stage3.conv2", "stage3.conv2.bn",
    }


def test_subband_stack_channels_match_builder_expectation():
    # three detail bands per input channel per level; extents halve each time
    from wcnn import autodiff as ad
    from wcnn import wavelet as W

    x = ad.Variable(Tensor(np.zeros((1, 3, 32, 32)), dtype="f64"))
    stacks = W.decompose_variables(x, 5)
    assert [s.value.shape[1] for s in stacks] == [9] * 5
    assert [s.value.shape[-1] for s in stacks] == [16, 8, 4, 2, 1]
    cfg = M.WaveletCnnConfig(levels=5, input_size=32, input_channels=3,
                             channels=(8, 12, 16, 20, 24), num_classes=3,
                             precision="f64")
    model = M.build(cfg)
    for t in range(1, 6):
        proj, _ = model.blocks[f"stage{t}.proj"]
        assert proj.weight.value.shape[1] == 9  # consumes the level-t stack
        block1, _ = model.blocks[f"stage{t}.conv1"]
        expected_width = cfg.resolved_channels()[t - 1] + cfg.proj_width(
            cfg.resolved_channels()[t - 1])
        assert block1.weight.value.shape[1] == expected_width


def test_ablated_is_strict_subset():
    full = M.build(tiny_config())
    plain = M.ablate_to_plain_cnn(tiny_config())
    assert M.param_count(plain)[0] < M.param_count(full)[0]
    x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 32, 32)), dtype="f64")
    assert M.forward(plain, x).value.shape == (2, 3)


# --- forward behavior ---------------------------------------------------------------


def test_eval_forward_deterministic():
    model = M.build(tiny_config())
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 32, 32)), dtype="f64")
    a = M.forward(model, x, mode="eval").value
    b = M.forward(model, x, mode="eval").value
    assert np.array_equal(a, b)


def test_zero_input_gives_equal_logits():
    model = M.build(tiny_config())
    x = Tensor(np.zeros((2, 3, 32, 32)), dtype="f64")
    logits = M.forward(model, x, mode="eval").value
    assert np.max(np.abs(logits - logits[:, :1])) == 0.0


def test_batch_order_invariance_eval():
    model = M.build(tiny_config())
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 32, 32))
    perm = np.array([2, 0, 3, 1])
    out = M.forward(model, Tensor(x, dtype="f64"), mode="eval").value
    out_perm = M.forward(model, Tensor(x[perm], dtype="f64"), mode="eval").value
    assert np.allclose(out_perm, out[perm], rtol=1e-12, atol=0)


def test_same_seed_builds_identical_models():
    a = M.build(tiny_config())
    b = M.build(tiny_config())
    for name in a.params:
        assert np.array_equal(a.params[name].value, b.params[name].value)


def test_end_to_end_gradient_subset():
    cfg = tiny_config(input_size=16, input_channels=1, channels=(4, 6),
                      blocks_per_stage=1, num_classes=2)
    model = M.build(cfg)
    labels = np.array([0])

    def f(v):
        logits = M.forward(model, v, mode="train")
        return L.softmax_cross_entropy(logits, labels)

    rng = np.random.default_rng(4)
    x = ad.Variable(Tensor(rng.standard_normal((1, 1, 16, 16)), dtype="f64"), requires_grad=True)
    coords = list(range(0, 256, 17))
    err = ad.gradient_errors(lambda: f(x), {"x": x}, {"x": coords}, 1e-5, floor=1e-12)["x"]
    assert err < 1e-5


def test_stage_concat_is_written_in_place_with_the_bits_of_a_copying_concat(monkeypatch):
    # each stage's down and proj outputs are channels of the concat's value,
    # and the logits, every gradient and the running statistics equal those
    # of a forward whose concat copies its parts with np.concatenate
    cfg = tiny_config(levels=3, channels=(4, 6, 8), blocks_per_stage=1)
    rng = np.random.default_rng(6)
    batch, labels = rng.standard_normal((2, 3, 32, 32)), np.array([0, 2])

    def step():
        model = M.build(cfg)
        logits = M.forward(model, batch, mode="train")
        ad.backward(L.softmax_cross_entropy(logits, labels))
        return [logits.value, *(p.grad for p in model.params.values()),
                *model.buffers().values()]

    def copying(parts):
        value = np.concatenate([p.value for p in parts], axis=1)
        cuts = np.cumsum([p.value.shape[1] for p in parts])[:-1]
        return ad.record("concat_channels", value, tuple(parts),
                         lambda g: tuple(np.split(g, cuts, axis=1)))

    concats = []
    in_place = ad.concat_channels

    def spy(parts):
        out = in_place(parts)
        concats.append((out.value, [p.value for p in parts]))
        return out

    monkeypatch.setattr(ad, "concat_channels", spy)
    got = step()
    assert len(concats) == cfg.levels
    for value, parts in concats:
        assert all(part.base is value for part in parts)
    monkeypatch.setattr(ad, "concat_channels", copying)
    for a, b in zip(got, step(), strict=True):
        assert np.array_equal(a, b)


# --- eval is inference: untaped, batch norm folded into the conv ---------------------

DESK = M.WaveletCnnConfig(levels=3, input_size=32, input_channels=1, channels=(12, 24, 32),
                          num_classes=6, precision="f32")


def unfolded_cbr(biases: dict):
    """A stand-in for `model._cbr` that runs each eval block unfolded,
    relu(gamma * (conv + b - mean) / sqrt(var + eps) + beta), where b is
    `biases[block]`, a conv bias as blocks once had, or 0 if absent."""
    def cbr(model, h, name, mode, out=None):
        conv, bn = model.blocks[name]
        c4 = (None, slice(None), None, None)
        y = L.conv2d(h, conv).value
        if name in biases:
            y = y + biases[name][c4]
        y = np.maximum(bn.gamma.value[c4] * (y - bn.running_mean[c4])
                       / np.sqrt(bn.running_var[c4] + bn.epsilon) + bn.beta.value[c4], 0)
        if out is not None:
            out[...] = y
            y = out
        return ad.Variable(y)
    return cbr


@pytest.mark.parametrize("cfg, rtol", [
    (DESK, 1e-5),
    (tiny_config(channels=(4, 6), blocks_per_stage=1), 1e-12),
    (tiny_config(ablated=True), 1e-12),
    (tiny_config(embedding_dim=5), 1e-12),
], ids=["desk-f32", "small-f64", "ablated-f64", "embedding-f64"])
def test_folded_eval_matches_the_taped_eval(cfg, rtol, monkeypatch):
    # the oracle is each block unfolded, as the taped eval path computed it;
    # the blocks carry random affine parameters, the head random biases, and
    # running statistics moved by train-mode forwards, so every term counts
    model = M.build(cfg)
    rng = np.random.default_rng(12)
    dt = np.float32 if cfg.precision == "f32" else np.float64
    for name, p in model.params.items():
        if name.endswith(".bn.gamma"):
            p.value[...] = rng.uniform(0.5, 2.0, p.value.shape)
        elif name.endswith((".bn.beta", ".bias")):
            p.value[...] = 0.1 * rng.standard_normal(p.value.shape)
    shape = (6, cfg.input_channels, cfg.input_size, cfg.input_size)
    for _ in range(3):
        M.forward(model, rng.standard_normal(shape).astype(dt), "train")
    x = rng.standard_normal(shape).astype(dt)
    state = [p.value.copy() for p in model.params.values()] + \
        [b.copy() for b in model.buffers().values()]
    folded = M.forward(model, x, "eval").value
    monkeypatch.setattr(M, "_cbr", unfolded_cbr({}))
    unfolded = M.forward(model, x, "eval").value
    assert folded.dtype == unfolded.dtype
    assert np.max(np.abs(folded - unfolded)) <= rtol * np.max(np.abs(unfolded))
    assert np.array_equal(folded.argmax(axis=1), unfolded.argmax(axis=1))
    after = [p.value for p in model.params.values()] + list(model.buffers().values())
    assert all(np.array_equal(a, b) for a, b in zip(state, after, strict=True))


@pytest.mark.parametrize("cfg", [DESK, tiny_config(embedding_dim=5)],
                         ids=["desk-f32", "embedding-f64"])
def test_eval_forward_ignores_the_taping_context(cfg):
    # eval is inference wherever it runs: the same bits inside and outside
    # `no_grad()`, and even a grad-requiring input leaves nothing to differentiate
    model = M.build(cfg)
    dt = np.float32 if cfg.precision == "f32" else np.float64
    shape = (3, cfg.input_channels, cfg.input_size, cfg.input_size)
    x = ad.Variable(np.random.default_rng(14).standard_normal(shape).astype(dt),
                    requires_grad=True)
    logits = M.forward(model, x, "eval")
    with ad.no_grad():
        inside = M.forward(model, x, "eval")
    assert np.array_equal(logits.value, inside.value)
    assert logits._parents == () and logits._backward_fn is None
    assert ad.backward(L.softmax_cross_entropy(logits, np.array([0, 1, 2]))) == []
    assert x.grad is None and all(p.grad is None for p in model.params.values())


def test_evaluate_attaches_no_backward_closure(monkeypatch):
    counts = {"nodes": 0, "closures": 0}
    real_record = ad.record

    def record(*args):
        out = real_record(*args)
        counts["nodes"] += 1
        counts["closures"] += out._backward_fn is not None
        return out

    monkeypatch.setattr(ad, "record", record)
    monkeypatch.setattr(L, "record", record)  # `layers` imports it by name
    rng = np.random.default_rng(13)
    records = [ImageRecord(rng.random((1, 32, 32)), (i % 6,), f"r{i}") for i in range(5)]
    result = TR.evaluate(M.build(DESK), records, batch_size=2)
    assert 0.0 <= result["accuracy"] <= 100.0
    assert counts["nodes"] > 0 and counts["closures"] == 0


# --- checkpointing -------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    model = M.build(tiny_config())
    # perturb running stats so buffers are exercised too
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((4, 3, 32, 32)), dtype="f64")
    M.forward(model, x, mode="train")
    path = tmp_path / "model.wcnn"
    M.save_model(model, path)
    loaded = M.load_model(path)
    assert loaded.config == model.config
    for name in model.params:
        assert np.array_equal(loaded.params[name].value, model.params[name].value)
    before = M.forward(model, x, mode="eval").value
    after = M.forward(loaded, x, mode="eval").value
    assert np.array_equal(before, after)


def test_load_model_draws_no_init(tmp_path, monkeypatch):
    # every array comes from the file, so loading draws nothing from the INIT stream
    model = M.build(tiny_config(embedding_dim=5))
    M.forward(model, Tensor(np.random.default_rng(15).standard_normal((4, 3, 32, 32))), "train")
    path = tmp_path / "model.wcnn"
    M.save_model(model, path)

    def refuse(*args):
        raise AssertionError("load_model drew an initial weight")

    monkeypatch.setattr(M, "_he_uniform", refuse)
    loaded = M.load_model(path)
    assert list(loaded.params) == list(model.params)
    assert list(loaded.blocks) == list(model.blocks)
    for name, v in model.params.items():
        assert np.array_equal(loaded.params[name].value, v.value)
    for name, t in model.buffers().items():
        assert np.array_equal(loaded.buffers()[name], t)


def with_legacy_biases(model: M.Model, rng) -> dict:
    """Give `model` the parameter layout blocks had while their conv carried
    a bias: a random `<block>.bias` after each block's weight.  Returns the
    biases by block."""
    params, biases = {}, {}
    for name, v in model.params.items():
        params[name] = v
        block = name.removesuffix(".weight")
        if block in model.blocks:
            biases[block] = 0.1 * rng.standard_normal(v.value.shape[0])
            params[f"{block}.bias"] = ad.Variable(biases[block])
    model.params = params
    return biases


@pytest.mark.parametrize("cfg", [tiny_config(embedding_dim=5), tiny_config(ablated=True)],
                         ids=["embedding", "ablated"])
def test_legacy_checkpoint_folds_block_biases_into_running_means(tmp_path, monkeypatch, cfg):
    # a WCNN1 file written while blocks had a conv bias loads without it and
    # gives the eval logits of its unfolded blocks with the biases in:
    # (conv + b - mean) * s = (conv - (mean - b)) * s
    model = M.build(cfg)
    rng = np.random.default_rng(21)
    shape = (6, cfg.input_channels, cfg.input_size, cfg.input_size)
    for _ in range(2):
        M.forward(model, rng.standard_normal(shape), "train")
    biases = with_legacy_biases(model, rng)
    assert biases.keys() == model.blocks.keys()
    path = tmp_path / "legacy.wcnn"
    M.save_model(model, path)
    loaded = M.load_model(path)
    assert list(loaded.params) == [n for n in model.params if n.removesuffix(".bias") not in biases]
    x = rng.standard_normal(shape)
    got = M.forward(loaded, x, "eval").value
    monkeypatch.setattr(M, "_cbr", unfolded_cbr(biases))
    want = M.forward(model, x, "eval").value
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


@pytest.mark.parametrize("bias, match", [(np.zeros(3), r"is f64\[3\], expected f64\[8\]"),
                                         (np.zeros(8, np.float32), r"is f32\[8\], expected f64"),
                                         (np.full(8, np.inf), "is not finite")])
def test_legacy_block_bias_is_checked_like_any_stored_array(tmp_path, bias, match):
    model = M.build(tiny_config())
    saved = np.nan_to_num(bias)  # save_model writes finite values only: the inf goes in after
    model.params["stage1.conv1.bias"] = ad.Variable(saved)
    path = tmp_path / "legacy.wcnn"
    M.save_model(model, path)
    le = bias.dtype.newbyteorder("<")
    path.write_bytes(path.read_bytes().replace(saved.astype(le).tobytes(), bias.astype(le).tobytes()))
    with pytest.raises(M.CheckpointError, match=r"stage1\.conv1\.bias " + match):
        M.load_model(path)


def test_checkpoint_rejects_a_manifest_name_the_config_does_not_declare(tmp_path):
    model = M.build(tiny_config())
    model.params["stage9.bogus.weight"] = ad.Variable(np.ones(3))
    path = tmp_path / "model.wcnn"
    M.save_model(model, path)
    with pytest.raises(M.CheckpointError, match=r"declares no stage9\.bogus\.weight"):
        M.load_model(path)


def test_checkpoint_rejects_a_manifest_name_given_twice(tmp_path):
    path = tmp_path / "model.wcnn"
    M.save_model(M.build(tiny_config()), path)
    raw = path.read_bytes().replace(b"\nstage1.down.bn.beta ", b"\nstage1.down.bn.gamma ", 1)
    path.write_bytes(raw)
    with pytest.raises(M.CheckpointError, match=r"stage1\.down\.bn\.gamma appears twice"):
        M.load_model(path)


def test_checkpoint_rejects_truncation(tmp_path):
    model = M.build(tiny_config())
    path = tmp_path / "model.wcnn"
    M.save_model(model, path)
    raw = path.read_bytes()
    (tmp_path / "short.wcnn").write_bytes(raw[:-10])
    with pytest.raises(M.CheckpointError):
        M.load_model(tmp_path / "short.wcnn")
    (tmp_path / "bad.wcnn").write_bytes(b"NOTME 1\n")
    with pytest.raises(M.CheckpointError):
        M.load_model(tmp_path / "bad.wcnn")


def test_checkpoint_version_mismatch(tmp_path):
    model = M.build(tiny_config())
    path = tmp_path / "model.wcnn"
    M.save_model(model, path)
    raw = path.read_bytes().replace(b"WCNN1 1\n", b"WCNN1 9\n", 1)
    (tmp_path / "v9.wcnn").write_bytes(raw)
    with pytest.raises(M.CheckpointError):
        M.load_model(tmp_path / "v9.wcnn")


def test_checkpoint_arrays_of_another_precision_are_rejected(tmp_path):
    # a config line edited to f32 over an f64 payload must not load narrowed
    path = tmp_path / "model.wcnn"
    M.save_model(M.build(tiny_config()), path)
    raw = path.read_bytes()
    assert b"\nprecision = f64\n" in raw
    path.write_bytes(raw.replace(b"\nprecision = f64\n", b"\nprecision = f32\n", 1))
    with pytest.raises(M.CheckpointError, match=r"stage1\.down\.weight is f64"):
        M.load_model(path)


@pytest.mark.parametrize("name, bad", [("head.fc.bias", np.nan), ("stage2.conv1.weight", -np.inf),
                                       ("stage1.proj.bn.running_var", np.inf)])
def test_save_model_refuses_non_finite_values(tmp_path, name, bad):
    model = M.build(tiny_config())
    values = {**{k: v.value for k, v in model.params.items()}, **model.buffers()}
    values[name].reshape(-1)[-1] = bad
    path = tmp_path / "model.wcnn"
    with pytest.raises(M.NonFiniteModelError, match=name):
        M.save_model(model, path)
    assert not path.exists()


def test_save_model_failing_midway_keeps_the_old_checkpoint(tmp_path, disk_full_halfway):
    path = tmp_path / "model.wcnn"
    M.save_model(M.build(tiny_config()), path)
    old = path.read_bytes()
    disk_full_halfway(1000)  # the payload, not the header
    with pytest.raises(OSError, match="No space"):
        M.save_model(M.build(tiny_config(init_seed=1)), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.wcnn"]  # no temporary left


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.wcnn"
    M.save_model(M.build(tiny_config(levels=2, input_size=16, input_channels=1, channels=(4, 6),
                                     blocks_per_stage=1)), path)
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_checkpoint_corruption_loads_or_raises_checkpoint_error(tiny_checkpoint, data):
    """1-3 overwritten bytes, in the header (everything before the payload) or anywhere."""
    raw = tiny_checkpoint.read_bytes()
    header = raw.index(b"\n", raw.index(b"\npayload ") + 1) + 1
    buf = bytearray(raw)
    limit = header if data.draw(st.booleans(), label="in header") else len(raw)
    for _ in range(data.draw(st.integers(1, 3), label="bytes")):
        buf[data.draw(st.integers(0, limit - 1))] = data.draw(st.integers(0, 255))
    corrupted = tiny_checkpoint.with_name("corrupted.wcnn")
    corrupted.write_bytes(bytes(buf))
    try:
        M.load_model(corrupted)
    except M.CheckpointError:
        pass
