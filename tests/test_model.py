import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcnn import autodiff as ad
from wcnn import layers as L
from wcnn import model as M
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
        total += out * prev * 9 + out  # stride-2 conv, 3x3 kernel + bias
        total += 2 * out  # batch norm gamma/beta
        width = out
        if not cfg.ablated:
            proj = max(1, int(out * cfg.proj_fraction + 0.5))
            total += proj * (3 * cfg.input_channels) + proj  # 1x1 projection
            total += 2 * proj
            width = out + proj
        for _ in range(cfg.blocks_per_stage):
            total += out * width * 9 + out
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
    # stage1.down for 3 -> 8 channels: 8*3*9 + 8 = 224; its norm: 2*8 = 16
    model = M.build(tiny_config())
    breakdown = dict(M.param_count(model)[1])
    assert breakdown["stage1.down"] == 224
    assert breakdown["stage1.down.bn"] == 16


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
    x = Tensor(rng.standard_normal((1, 1, 16, 16)), dtype="f64")
    coords = list(range(0, 256, 17))
    err = ad.finite_difference_check(f, x, eps=1e-5, coords=coords)
    assert err < 1e-5


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


def test_checkpoint_narrowing(tmp_path):
    model = M.build(tiny_config())
    path = tmp_path / "model.wcnn"
    M.save_model(model, path)
    narrowed = M.load_model(path, precision="f32")
    assert narrowed.config.precision == "f32"
    worst = 0.0
    for name, v in model.params.items():
        lo = narrowed.params[name].value.astype(np.float64)
        hi = v.value
        scale = np.maximum(np.abs(hi), 1e-30)
        worst = max(worst, float(np.max(np.abs(lo - hi) / scale)))
    assert worst <= 2.0**-24  # round-to-nearest float32


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
