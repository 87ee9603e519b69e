"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a few minutes, dominated by the two desk-scale
training criteria.
"""

import time

import numpy as np
import pytest

from wcnn import autodiff as ad
from wcnn import cli
from wcnn import data as D
from wcnn import gradcheck as G
from wcnn import layers as L
from wcnn import metrics as X
from wcnn import model as M
from wcnn import train as TR
from wcnn import wavelet as W
from wcnn.tensor import Tensor, load_wtns, save_wtns

from test_metrics import Outcome, brute_force_bundle, matrices, random_outcomes
from test_model import census_walker


def rel(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return float(np.abs(a - b).max() / scale)


# --- 1. wavelet correctness -----------------------------------------------------


def test_acceptance_1_wavelet_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_recon, worst_energy = 0.0, 0.0
    for size in (32, 224):
        for channels in (1, 3):
            x = rng.standard_normal((1, channels, size, size))
            energy_in = float((x**2).sum())
            for levels in range(1, 6):
                pyr = W.decompose(Tensor(x), levels)
                back = W.reconstruct(pyr)
                worst_recon = max(worst_recon, rel(back.data, x))
                worst_energy = max(worst_energy, abs(pyr.energy() - energy_in) / energy_in)
    elapsed = time.perf_counter() - start
    assert worst_recon < 1e-10
    assert worst_energy < 1e-10
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: reconstruction {worst_recon:.2e}, "
          f"energy {worst_energy:.2e}, {elapsed:.2f}s")


# --- 2. generalized conv-pool equivalences ---------------------------------------


def test_acceptance_2_conv_pool_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    avg = np.array([0.5, 0.5])
    for _ in range(50):
        n = int(rng.integers(6, 50)) * 2
        x = Tensor(rng.standard_normal(n))
        w = rng.standard_normal(int(rng.integers(1, 7)))
        composite = np.convolve(w, avg)  # k = w * p
        one_shot = W.generalized_conv_pool(x, composite, 2)
        two_step = W.generalized_conv_pool(W.generalized_conv_pool(x, w, 1), avg, 2)
        worst = max(worst, rel(one_shot.data, two_step.data))

    # lowpass-only chain vs stacked average pooling, gain 2 per level
    worst_chain = 0.0
    k = np.outer(W.HAAR_LOWPASS, W.HAAR_LOWPASS)
    for _ in range(50):
        x = rng.standard_normal((1, 1, 32, 32))
        for levels in (1, 2, 3):
            chain = W.cnn_reduction(Tensor(x), [k] * levels)
            pooled = ad.Variable(Tensor(x))
            for _ in range(levels):
                pooled = L.average_pool(pooled, 2)
            worst_chain = max(worst_chain, rel(chain.data, 2.0**levels * pooled.value))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert worst_chain < 1e-10
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: composite-kernel {worst:.2e}, "
          f"lowpass-chain {worst_chain:.2e}, {elapsed:.2f}s")


# --- 3. gradient integrity --------------------------------------------------------


def test_acceptance_3_gradient_integrity():
    start = time.perf_counter()
    rows = G.layer_checks() + G.model_checks(G.default_check_config(), input_stride=1, coords_per_param=8)
    worst_name, worst = max(rows, key=lambda r: r[1])
    elapsed = time.perf_counter() - start
    assert worst < 1e-5, f"worst check {worst_name}: {worst:.2e}"
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 3 PASS: {len(rows)} checks, worst {worst_name} = {worst:.2e}, "
          f"{elapsed:.1f}s")


# --- 4. parameter accounting -------------------------------------------------------


def test_acceptance_4_parameter_accounting():
    shipped = [
        M.WaveletCnnConfig(),
        M.WaveletCnnConfig(embedding_dim=2048),
        M.WaveletCnnConfig(levels=4, channels=(64, 128, 256, 512)),
        M.WaveletCnnConfig(levels=3, input_size=32, input_channels=1,
                           channels=(12, 24, 32), num_classes=6),
        M.WaveletCnnConfig(levels=3, input_size=32, input_channels=1,
                           channels=(12, 24, 32), num_classes=6, ablated=True),
        G.default_check_config(),
    ]
    # weight materialization is timed separately from the accounting itself
    build_start = time.perf_counter()
    models = [M.build(cfg) for cfg in shipped]
    build_elapsed = time.perf_counter() - build_start
    assert build_elapsed < 10.0

    start = time.perf_counter()
    totals = []
    for cfg, model in zip(shipped, models):
        total, breakdown = M.param_count(model)
        assert total == census_walker(cfg), cfg
        assert total == sum(n for _, n in breakdown)
        assert all("wavelet" not in n and "filter" not in n for n, _ in breakdown)
        totals.append(total)

    default_total, embed_total = totals[0], totals[1]
    assert default_total < 20_000_000
    assert embed_total < 20_000_000
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 4 PASS: census exact on {len(shipped)} configs; default "
          f"{default_total / 1e6:.1f}M, embedding variant {embed_total / 1e6:.1f}M "
          f"(< 20M); accounting {elapsed * 1000:.0f}ms, builds {build_elapsed:.2f}s")


# --- 5 & 6. desk-scale learning ------------------------------------------------------


@pytest.fixture(scope="module")
def texture_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    D.synth_textures(out, classes=6, samples_per_class=40, size=32, seed=0)
    manifest = D.load_manifest(out / "manifest.tsv")
    splits = D.make_splits(manifest, "by-split-column")
    train_records = D.load_images(manifest, splits[0][0])
    test_records = D.load_images(manifest, splits[0][1])
    return manifest, train_records, test_records


def desk_config(**kw):
    base = dict(levels=3, input_size=32, input_channels=1, channels=(12, 24, 32),
                blocks_per_stage=2, num_classes=6, precision="f32", init_seed=0)
    base.update(kw)
    return M.WaveletCnnConfig(**base)


def test_acceptance_5_desk_scale_learning(texture_corpus):
    start = time.perf_counter()
    _, train_records, test_records = texture_corpus
    cfg = TR.TrainConfig(epochs=50, batch_size=16, lr=1e-3, seed=0, augment=True)

    full = M.build(desk_config())
    report_full = TR.train(full, train_records, test_records, cfg)
    assert report_full.best_test_acc >= 90.0

    ablated = M.ablate_to_plain_cnn(desk_config())
    report_plain = TR.train(ablated, train_records, test_records,
                            TR.TrainConfig(epochs=50, batch_size=16, lr=1e-3, seed=0,
                                           augment=True))
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(f"\nACCEPTANCE 5 PASS: detail-injection net {report_full.best_test_acc:.2f}% "
          f"(epoch {report_full.best_epoch}); lowpass-only baseline "
          f"{report_plain.best_test_acc:.2f}% under the same budget "
          f"(reported, no threshold asserted), {elapsed:.1f}s")


def test_acceptance_6_levels_sweep_format(texture_corpus, tmp_path):
    start = time.perf_counter()
    manifest, _, _ = texture_corpus
    # the desk configuration, its channel schedule cut to each level by the command
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("\n".join([
        "seed = 0",
        "model.levels = 4",
        "model.input_size = 32",
        "model.input_channels = 1",
        "model.channels = 12,24,32,32",
        "model.blocks_per_stage = 2",
        "model.classes = 6",
        "model.precision = f32",
        "train.epochs = 12",
        "train.batch_size = 16",
        "train.lr = 0.001",
        "train.augment = true",
        "train.eval_every = 2",
        f"data.manifest = {manifest.root / 'manifest.tsv'}",
        "data.policy = by-split-column",
        "data.split = 0",
    ]) + "\n")
    rc = cli.main(["levels-sweep", "--config", str(cfg_path), "--levels", "2,3,4",
                   "--seeds", "3", "--out", str(tmp_path / "sweep")])
    assert rc == 0
    text = (tmp_path / "sweep" / "levels_sweep.tsv").read_text()

    # completeness and format only: absolute accuracies at this scale say
    # nothing about full-scale texture benchmarks
    header, row = [line for line in text.splitlines() if not line.startswith("#")]
    assert header.split("\t") == ["levels", "2", "3", "4"]
    cells_out = row.split("\t")[1:]
    assert len(cells_out) == 3
    assert all("±" in c for c in cells_out)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 6 PASS: sweep table complete: {' | '.join(cells_out)} "
          f"(desk-scale; full-scale numbers require the real corpora), {elapsed:.1f}s")


# --- 7. multi-label metrics oracle -----------------------------------------------


def test_acceptance_7_multilabel_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    outcomes = random_outcomes(rng, 1000, 7)
    got = X.multilabel_bundle(*matrices(outcomes, 7))
    want = brute_force_bundle(outcomes, 7)
    for key in X.BUNDLE_KEYS:
        assert got[key] == pytest.approx(want[key], abs=1e-12), key

    hand = X.multilabel_bundle(*matrices([Outcome({0}, {0, 1})], 2))
    assert round(hand["O-P"], 2) == 100.0
    assert round(hand["O-R"], 2) == 50.0
    assert round(hand["O-F1"], 2) == 66.67
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7 PASS: 1000-outcome brute-force match exact; "
          f"hand example 100/50/66.67 reproduced, {elapsed:.2f}s")


# --- 8. determinism ------------------------------------------------------------------


def test_acceptance_8_determinism(texture_corpus, tmp_path):
    start = time.perf_counter()
    manifest, _, _ = texture_corpus
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text("\n".join([
        "seed = 0",
        "model.levels = 3",
        "model.input_size = 32",
        "model.input_channels = 1",
        "model.channels = 12,24,32",
        "model.classes = 6",
        "model.precision = f64",
        "train.epochs = 2",
        "train.batch_size = 16",
        "train.augment = true",
        f"data.manifest = {manifest.root / 'manifest.tsv'}",
        "data.policy = by-split-column",
        "data.split = 0",
    ]) + "\n")
    for name in ("run_a", "run_b"):
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / name)])
        assert rc == 0
    a = (tmp_path / "run_a" / "best.wcnn").read_bytes()
    b = (tmp_path / "run_b" / "best.wcnn").read_bytes()
    assert a == b
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 8 PASS: two 64-bit single-threaded runs produced "
          f"bit-identical checkpoints ({len(a)} bytes), {elapsed:.1f}s")


# --- 9. format round-trips ------------------------------------------------------------


def test_acceptance_9_format_roundtrips(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(909)

    for dtype in ("f32", "f64"):
        t = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype=dtype)
        save_wtns(tmp_path / "t.wtns", t)
        back = load_wtns(tmp_path / "t.wtns")
        assert back.dtype == dtype and np.array_equal(back.data, t.data)

    model = M.build(M.WaveletCnnConfig(levels=2, input_size=16, input_channels=1,
                                       channels=(4, 6), num_classes=3, precision="f64"))
    M.save_model(model, tmp_path / "m.wcnn")
    loaded = M.load_model(tmp_path / "m.wcnn")
    for name in model.params:
        assert np.array_equal(loaded.params[name].value, model.params[name].value)
    for name, buf in model.buffers().items():
        assert np.array_equal(loaded.buffers()[name], buf)

    for channels, maxval in ((1, 255), (3, 255), (1, 65535), (3, 65535)):
        quantized = rng.integers(0, maxval + 1, size=(channels, 5, 4)) / maxval
        D.write_pnm(tmp_path / "img.pnm", quantized, maxval=maxval)
        assert np.array_equal(D.load_pnm(tmp_path / "img.pnm"), quantized)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 9 PASS: WTNS1, WCNN1, and P5/P6 (8- and 16-bit) round-trips "
          f"bit-exact, {elapsed:.2f}s")