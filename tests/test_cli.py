import argparse
import ast
import inspect
from dataclasses import replace

import numpy as np
import pytest

from wcnn import autodiff as ad
from wcnn import cli
from wcnn import data as D
from wcnn import gradcheck as G
from wcnn import model as M
from wcnn import runconfig as RC
from wcnn import train as TR
from wcnn.schema import field_keys, from_items, to_items
from wcnn.tensor import ShapeError, load_wtns


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "corpus"
    D.synth_textures(out, classes=3, samples_per_class=8, size=16, seed=0)
    return out


def write_cfg(tmp_path, corpus, **extra):
    keys = {
        "seed": 0,
        "model.levels": 2,
        "model.input_size": 16,
        "model.input_channels": 1,
        "model.channels": "6,8",
        "model.blocks_per_stage": 1,
        "model.classes": 3,
        "model.precision": "f32",
        "train.epochs": 2,
        "train.batch_size": 8,
        "train.lr": 0.002,
        "train.augment": "false",
        "data.manifest": str(corpus / "manifest.tsv"),
        "data.policy": "by-split-column",
        "data.split": 0,
    }
    keys.update(extra)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in keys.items()) + "\n")
    return path


def test_config_parsing_and_hash(tmp_path):
    text = "# comment\nseed = 3\nmodel.levels = 2  # trailing\n\n"
    cfg = RC.parse_config_text(text)
    assert cfg == {"seed": "3", "model.levels": "2"}
    assert RC.config_hash(cfg) == RC.config_hash(dict(reversed(list(cfg.items()))))
    with pytest.raises(RC.ConfigError):
        RC.parse_config_text("not a pair\n")
    with pytest.raises(RC.ConfigError):
        RC.apply_overrides(cfg, ["oops"])
    assert RC.apply_overrides(cfg, ["seed=9"])["seed"] == "9"


# the accepted keys before the schema was derived from the dataclasses
KNOWN_KEYS_LITERAL = {
    "seed",
    "model.levels", "model.input_size", "model.input_channels", "model.channels",
    "model.blocks_per_stage", "model.classes", "model.head", "model.embedding_dim",
    "model.proj_fraction", "model.ablated", "model.precision",
    "model.bn_epsilon", "model.bn_momentum",
    "train.epochs", "train.batch_size", "train.lr", "train.lr_decay_every",
    "train.lr_decay_factor", "train.beta1", "train.beta2",
    "train.epsilon", "train.augment", "train.resize_to", "train.flip", "train.eval_every",
    "data.manifest", "data.policy", "data.split", "data.k",
}

# key -> (non-default text, WaveletCnnConfig fields it sets, TrainConfig fields it sets)
SCHEMA = {
    "seed": ("7", {"init_seed": 7}, {"seed": 7}),
    "model.levels": ("3", {"levels": 3}, {}),
    "model.input_size": ("64", {"input_size": 64}, {}),
    "model.input_channels": ("1", {"input_channels": 1}, {}),
    "model.channels": ("8,16,32", {"channels": (8, 16, 32)}, {}),
    "model.blocks_per_stage": ("3", {"blocks_per_stage": 3}, {}),
    "model.classes": ("10", {"num_classes": 10}, {}),
    "model.head": ("multilabel", {"head": "multilabel"}, {}),
    "model.embedding_dim": ("12", {"embedding_dim": 12}, {}),
    "model.proj_fraction": ("0.5", {"proj_fraction": 0.5}, {}),
    "model.ablated": ("true", {"ablated": True}, {}),
    "model.precision": ("f64", {"precision": "f64"}, {}),
    "model.bn_epsilon": ("0.001", {"bn_epsilon": 0.001}, {}),
    "model.bn_momentum": ("0.3", {"bn_momentum": 0.3}, {}),
    "train.epochs": ("3", {}, {"epochs": 3}),
    "train.batch_size": ("4", {}, {"batch_size": 4}),
    "train.lr": ("0.01", {}, {"lr": 0.01}),
    "train.lr_decay_every": ("2", {}, {"lr_decay_every": 2}),
    "train.lr_decay_factor": ("0.5", {}, {"lr_decay_factor": 0.5}),
    "train.beta1": ("0.8", {}, {"beta1": 0.8}),
    "train.beta2": ("0.99", {}, {"beta2": 0.99}),
    "train.epsilon": ("1e-07", {}, {"adam_epsilon": 1e-7}),
    "train.augment": ("false", {}, {"augment": False}),
    "train.resize_to": ("40", {}, {"resize_to": 40}),
    "train.flip": ("off", {}, {"flip": False}),
    "train.eval_every": ("2", {}, {"eval_every": 2}),
}


@pytest.mark.parametrize("key", [None, *SCHEMA], ids=lambda k: k or "every-key")
def test_config_schema(key, tmp_path, capsys):
    """One key (or every key) at a non-default value reaches exactly its fields."""
    cfg = {k: text for k, (text, _, _) in SCHEMA.items() if key in (None, k)}
    assert RC.KNOWN_KEYS == KNOWN_KEYS_LITERAL
    model_cfg = RC.model_config_from(cfg)
    assert model_cfg == M.WaveletCnnConfig(**{f: v for k in cfg for f, v in SCHEMA[k][1].items()})
    assert RC.train_config_from(cfg) == TR.TrainConfig(
        **{f: v for k in cfg for f, v in SCHEMA[k][2].items()})
    # the checkpoint config block is read by the same schema, with the field names as keys
    keys = field_keys(M.WaveletCnnConfig, "")
    assert from_items(M.WaveletCnnConfig, dict(to_items(model_cfg)), keys) == model_cfg
    if key is None:
        model = M.build(model_cfg)
        M.save_model(model, tmp_path / "m.wcnn")
        assert M.load_model(tmp_path / "m.wcnn").config == model.config
        assert cli.main(["param-count", "--set", "model.levels=two"]) == 2
        assert "model.levels: expected an integer, got 'two'" in capsys.readouterr().err


def test_decompose_constant_image(tmp_path, capsys):
    img = tmp_path / "flat.pgm"
    D.write_pnm(img, np.full((1, 8, 8), 128 / 255))
    rc = cli.main(["decompose", str(img), "--levels", "1", "--out", str(tmp_path / "bands")])
    assert rc == 0
    ll = load_wtns(tmp_path / "bands" / "flat_L1_LL.wtns")
    assert np.allclose(ll.data, 2 * 128 / 255, atol=1e-6)
    for band in ("LH", "HL", "HH"):
        t = load_wtns(tmp_path / "bands" / f"flat_L1_{band}.wtns")
        assert np.max(np.abs(t.data)) < 1e-6


def test_decompose_file_count_and_verify(tmp_path, capsys):
    rng = np.random.default_rng(0)
    img = tmp_path / "tex.pgm"
    D.write_pnm(img, rng.random((1, 32, 32)))
    out = tmp_path / "bands"
    rc = cli.main(["decompose", str(img), "--levels", "5", "--out", str(out), "--verify"])
    assert rc == 0
    assert len(list(out.glob("*.wtns"))) == 16  # 3 per level + final low band
    lines = capsys.readouterr().out.strip().splitlines()
    tag, err = lines[-1].split("\t")
    assert tag == "max_reconstruction_error"
    assert float(err) < 1e-4  # 32-bit round trip


def test_decompose_indivisible_exits_2(tmp_path, capsys):
    img = tmp_path / "odd.pgm"
    D.write_pnm(img, np.zeros((1, 30, 30)))
    rc = cli.main(["decompose", str(img), "--levels", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "pad to" in capsys.readouterr().err


def test_decompose_malformed_pnm_header_exits_2(tmp_path, capsys):
    img = tmp_path / "bad.pgm"
    img.write_bytes(b"P5 x 2 255\n" + bytes(4))
    rc = cli.main(["decompose", str(img), "--levels", "1", "--out", str(tmp_path / "bands")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_decompose_sample_above_maxval_exits_2(tmp_path, capsys):
    img = tmp_path / "above.pgm"
    img.write_bytes(b"P5 2 1 100\n" + bytes([255, 50]))
    rc = cli.main(["decompose", str(img), "--levels", "1", "--out", str(tmp_path / "bands")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["decompose", "{dir}"],
    ["eval", "{dir}", "--manifest", "{manifest}"],
    ["eval", "{ckpt}", "--manifest", "{dir}"],
    ["eval", "{ckpt}/m.wcnn", "--manifest", "{manifest}"],
], ids=["decompose-dir", "eval-dir", "manifest-dir", "under-a-file"])
def test_path_of_the_wrong_kind_exits_2(tmp_path, corpus, capsys, argv):
    # a directory where a file belongs, or a file where a directory belongs
    model = M.build(RC.model_config_from(RC.load_config(write_cfg(tmp_path, corpus))))
    M.save_model(model, tmp_path / "m.wcnn")
    paths = {"dir": tmp_path, "ckpt": tmp_path / "m.wcnn", "manifest": corpus / "manifest.tsv"}
    argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("which", ["config", "manifest"])
def test_file_not_in_utf8_exits_2_naming_it(tmp_path, corpus, capsys, which):
    cfg = write_cfg(tmp_path, corpus)
    bad = cfg if which == "config" else corpus / "manifest.tsv"
    bad.write_bytes(b"# \xff\n" + bad.read_bytes())
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte 2)\n"


def test_synth_deterministic(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "a"), "--classes", "2",
                     "--samples", "3", "--size", "16"]) == 0
    assert cli.main(["synth", "--out", str(tmp_path / "b"), "--classes", "2",
                     "--samples", "3", "--size", "16"]) == 0
    a = sorted((tmp_path / "a" / "images").iterdir())
    b = sorted((tmp_path / "b" / "images").iterdir())
    assert [p.name for p in a] == [p.name for p in b]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))


def test_param_count_matches_library(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus)
    rc = cli.main(["param-count", "--config", str(cfg)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "layer\tparams"
    total_line = lines[-1].split("\t")
    model = M.build(RC.model_config_from(RC.load_config(cfg)))
    assert total_line == ["TOTAL", str(M.param_count(model)[0])]


def test_param_count_diff_localizes_to_new_stage(tmp_path, corpus, capsys):
    def table(levels, channels):
        cfg = write_cfg(tmp_path, corpus, **{"model.levels": levels,
                                             "model.channels": channels})
        assert cli.main(["param-count", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:-1]
        return {r.split("\t")[0]: int(r.split("\t")[1]) for r in rows}

    two = table(2, "6,8")
    three = table(3, "6,8,10")
    changed = {k for k in set(two) | set(three) if two.get(k) != three.get(k)}
    assert changed
    assert all(k.startswith("stage3.") or k.startswith("head.") for k in changed)


def test_train_writes_artifacts(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = (out / "report.tsv").read_text()
    assert "# config_hash = " in report
    assert "# cfg.data.manifest = " in report
    assert (out / "best.wcnn").is_file()
    loaded = M.load_model(out / "best.wcnn")
    assert loaded.config.num_classes == 3


def test_train_rejects_unknown_key(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus)
    rc = cli.main(["train", "--config", str(cfg), "--set", "model.depht=3",
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_wavelet_key_is_unknown(capsys):
    # the transform is always Haar; the former `model.wavelet` key is not accepted
    assert cli.main(["param-count", "--set", "model.wavelet=haar"]) == 2
    assert "unknown config keys: ['model.wavelet']" in capsys.readouterr().err


def test_train_class_count_mismatch_exits_2(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus, **{"model.classes": 5})
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan propagation is the point
def test_train_divergence_exits_3(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus, **{"train.lr": 1e18, "train.epochs": 3})
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan propagation is the point
def test_train_exits_3_before_checkpointing_non_finite_parameters(tmp_path, corpus, capsys):
    # one epoch of one batch: the step to inf comes after the only loss check,
    # so the best checkpoint is the first place that sees it
    cfg = write_cfg(tmp_path, corpus, **{"train.lr": 1e39, "train.epochs": 1,
                                         "train.batch_size": 32})
    out = tmp_path / "x"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    assert "is not finite; checkpoint" in capsys.readouterr().err
    assert not (out / "best.wcnn").exists()


def test_eval_checkpoint(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli.main(["eval", str(out / "best.wcnn"),
                   "--manifest", str(corpus / "manifest.tsv"),
                   "--policy", "by-split-column", "--split", "0",
                   "--out", str(tmp_path / "ev")])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("# checkpoint_config_hash = ")
    assert "\naccuracy\t" in text
    assert (tmp_path / "ev" / "metrics.tsv").read_text() == text


def test_eval_report_failing_midway_keeps_the_old_report(tmp_path, corpus, disk_full_halfway):
    model = M.build(RC.model_config_from(RC.load_config(write_cfg(tmp_path, corpus))))
    M.save_model(model, tmp_path / "m.wcnn")
    out = tmp_path / "ev"
    out.mkdir()
    (out / "metrics.tsv").write_text("an earlier report\n")
    disk_full_halfway(0)
    with pytest.raises(OSError, match="No space"):
        cli.main(["eval", str(tmp_path / "m.wcnn"), "--manifest", str(corpus / "manifest.tsv"),
                  "--out", str(out)])
    assert (out / "metrics.tsv").read_text() == "an earlier report\n"
    assert [p.name for p in out.iterdir()] == ["metrics.tsv"]  # no temporary left


def test_eval_defaults_to_the_runs_k_fold_split(tmp_path, corpus, capsys, monkeypatch):
    # without --seed, eval must shuffle the folds as training did, with the run's seed
    cfg = write_cfg(tmp_path, corpus, seed=3, **{"data.policy": "k-fold", "data.k": 4})
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    evaluated, real_evaluate = [], TR.evaluate

    def evaluate(model, records):
        evaluated.extend(r.path for r in records)
        return real_evaluate(model, records)

    monkeypatch.setattr(TR, "evaluate", evaluate)
    rc = cli.main(["eval", str(out / "best.wcnn"), "--manifest", str(corpus / "manifest.tsv"),
                   "--policy", "k-fold", "--k", "4", "--split", "0", "--out", str(tmp_path / "ev")])
    assert rc == 0
    manifest = D.load_manifest(corpus / "manifest.tsv")
    held_out = D.make_splits(manifest, "k-fold", k=4, seed=3)[0][1]
    assert held_out != D.make_splits(manifest, "k-fold", k=4, seed=0)[0][1]
    assert evaluated == [manifest.records[i].path for i in held_out]


@pytest.mark.parametrize("argv", [["--split", "3"], ["--k", "4"],
                                  ["--policy", "by-split-column", "--k", "4"]],
                         ids=["split-without-policy", "k-without-policy", "k-by-split-column"])
def test_eval_rejects_split_options_that_cannot_apply(tmp_path, corpus, capsys, argv):
    model = M.build(RC.model_config_from(RC.load_config(write_cfg(tmp_path, corpus))))
    M.save_model(model, tmp_path / "m.wcnn")
    rc = cli.main(["eval", str(tmp_path / "m.wcnn"), "--manifest", str(corpus / "manifest.tsv"),
                   *argv, "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_rejects_k_outside_k_fold(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus, **{"data.k": 4})
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "k applies to the k-fold policy only" in capsys.readouterr().err


def test_eval_class_mismatch_exits_2(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    other = tmp_path / "other"
    D.synth_textures(other, classes=2, samples_per_class=3, size=16, seed=1)
    rc = cli.main(["eval", str(out / "best.wcnn"), "--manifest", str(other / "manifest.tsv")])
    assert rc == 2


@pytest.mark.parametrize("labels", ["", "{0},{1}"], ids=["unlabeled", "two-labels"])
def test_eval_label_count_must_fit_softmax_head(tmp_path, corpus, capsys, labels):
    # training rejects such an image under a softmax head; eval must reject it the same way
    lines = (corpus / "manifest.tsv").read_text().splitlines()
    names = sorted({line.split("\t")[1] for line in lines[1:]})
    path, _, *rest = lines[1].split("\t")
    lines[1] = "\t".join([path, labels.format(*names), *rest])
    manifest_path = corpus / "odd.tsv"
    manifest_path.write_text("\n".join(lines) + "\n")
    model = M.build(RC.model_config_from(RC.load_config(write_cfg(tmp_path, corpus))))
    M.save_model(model, tmp_path / "m.wcnn")
    rc = cli.main(["eval", str(tmp_path / "m.wcnn"), "--manifest", str(manifest_path),
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    manifest = D.load_manifest(manifest_path)
    with pytest.raises(ShapeError, match="exactly one label"):
        TR.evaluate(model, D.load_images(manifest, range(len(manifest.records))))


@pytest.mark.parametrize("before, after", [(b"levels = 2", b"levels = \xff"),
                                           (b"levels = 2", b"levels = x"),
                                           (b"manifest ", b"manifesT ")])
def test_eval_corrupted_checkpoint_header_exits_2(tmp_path, corpus, capsys, before, after):
    cfg = RC.model_config_from(RC.load_config(write_cfg(tmp_path, corpus)))
    path = tmp_path / "m.wcnn"
    M.save_model(M.build(cfg), path)
    path.write_bytes(path.read_bytes().replace(before, after, 1))
    rc = cli.main(["eval", str(path), "--manifest", str(corpus / "manifest.tsv"),
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def overwrite_stored_scalar(path, name, index, value):
    """Overwrite scalar `index` of the array `name` in the payload of the checkpoint at `path`."""
    raw = path.read_bytes()
    start = raw.index(b"\n", raw.index(b"\npayload ") + 1) + 1
    fields = next(line.split() for line in raw[:start].decode("ascii").splitlines()
                  if line.split()[0] == name)
    le = np.dtype({"f32": "<f4", "f64": "<f8"}[fields[2]])
    at = start + int(fields[-1]) + index * le.itemsize
    path.write_bytes(raw[:at] + np.array(value, le).tobytes() + raw[at + le.itemsize:])


@pytest.mark.parametrize("name, value", [("stage1.down.weight", np.nan), ("head.fc.bias", -np.inf),
                                         ("stage2.conv1.bn.running_var", -5.0)])
def test_eval_checkpoint_with_corrupted_values_exits_2(tmp_path, corpus, capsys, name, value):
    cfg = RC.model_config_from(RC.load_config(write_cfg(tmp_path, corpus)))
    path = tmp_path / "m.wcnn"
    M.save_model(M.build(cfg), path)
    overwrite_stored_scalar(path, name, 1, value)
    with pytest.raises(M.CheckpointError, match=name):
        M.load_model(path)
    rc = cli.main(["eval", str(path), "--manifest", str(corpus / "manifest.tsv"),
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {name}") and "Traceback" not in err


@pytest.mark.parametrize("stray, message", [("undeclared", "the config declares no stage9.bogus.weight"),
                                            ("twice", "stage1.down.bn.gamma appears twice")])
def test_eval_checkpoint_with_a_stray_manifest_name_exits_2(tmp_path, corpus, capsys, stray,
                                                             message):
    model = M.build(RC.model_config_from(RC.load_config(write_cfg(tmp_path, corpus))))
    if stray == "undeclared":
        model.params["stage9.bogus.weight"] = ad.Variable(np.ones(3, np.float32))
    path = tmp_path / "m.wcnn"
    M.save_model(model, path)
    if stray == "twice":
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"\nstage1.down.bn.beta ", b"\nstage1.down.bn.gamma ", 1))
    rc = cli.main(["eval", str(path), "--manifest", str(corpus / "manifest.tsv"),
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err


def checkpoint_with_wavelet_line(tmp_path, corpus, wavelet):
    """A checkpoint as written while the config had a `wavelet` field (sorted last)."""
    model = M.build(RC.model_config_from(RC.load_config(write_cfg(tmp_path, corpus))))
    path = tmp_path / "m.wcnn"
    M.save_model(model, path)
    n = len(to_items(model.config))
    raw = path.read_bytes().replace(f"\nconfig {n}\n".encode(), f"\nconfig {n + 1}\n".encode(), 1)
    path.write_bytes(raw.replace(b"\nmanifest ", f"\nwavelet = {wavelet}\nmanifest ".encode(), 1))
    return model, path


def test_checkpoint_with_haar_wavelet_line_loads(tmp_path, corpus):
    model, path = checkpoint_with_wavelet_line(tmp_path, corpus, "haar")
    loaded = M.load_model(path)
    assert loaded.config == model.config
    assert loaded.params.keys() == model.params.keys()
    for name, v in model.params.items():
        assert np.array_equal(loaded.params[name].value, v.value)


def test_checkpoint_with_other_wavelet_exits_2(tmp_path, corpus, capsys):
    _, path = checkpoint_with_wavelet_line(tmp_path, corpus, "db2")
    rc = cli.main(["eval", str(path), "--manifest", str(corpus / "manifest.tsv"),
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert "stored wavelet 'db2'" in capsys.readouterr().err


def test_gradcheck_cli(tmp_path, capsys):
    def run(*extra):
        assert cli.main(["gradcheck", "--tolerance", "1e-5", "--coords-per-param", "2",
                         *extra]) == 0
        return capsys.readouterr().out

    out = run()
    assert out.startswith("check\tmax_rel_error")
    assert "WORST\t" in out
    # --seed sets the checked model's init seed; 7 is the default check config's
    assert run("--seed", "7") == out
    assert run("--seed", "5") != out


def test_gradcheck_checks_the_model_its_keys_name(monkeypatch, capsys):
    checked = []
    monkeypatch.setattr(G, "layer_checks", lambda: [])
    monkeypatch.setattr(G, "model_checks", lambda cfg, **_: checked.append(cfg) or [])
    small, large = G.default_check_config(), M.WaveletCnnConfig(precision="f64")
    for argv, want in [
        ([], small),
        (["--set", "train.epochs=3"], small),  # a key the check does not read
        (["--seed", "5"], replace(small, init_seed=5)),
        (["--set", "seed=5", "--set", "train.lr=0.1"], replace(small, init_seed=5)),
        (["--set", "model.classes=4"], replace(large, num_classes=4)),
    ]:
        assert cli.main(["gradcheck", *argv]) == 0
        assert checked.pop() == want, argv


def _args_reads() -> dict[str, set[str]]:
    """For each function of the cli module, the `args.<dest>` it reads, itself or
    through a function of the module that it passes `args` to."""
    tree = ast.parse(inspect.getsource(cli))
    reads, passes = {}, {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            reads[fn.name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                              and isinstance(n.value, ast.Name) and n.value.id == "args"}
            passes[fn.name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                               and isinstance(n.func, ast.Name)
                               and any(isinstance(a, ast.Name) and a.id == "args"
                                       for a in n.args)}
    closure = {}
    for name in reads:
        seen, stack = set(), [name]
        while stack:
            f = stack.pop()
            if f in reads and f not in seen:
                seen.add(f)
                stack.extend(passes[f])
        closure[name] = set().union(*(reads[f] for f in seen))
    return closure


def test_every_option_is_read_by_its_command():
    reads = _args_reads()
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    unread = [(name, a.dest) for name, p in commands.items() for a in p._actions
              if not isinstance(a, argparse._HelpAction)
              and a.dest not in reads[p.get_default("fn").__name__]]
    assert unread == []
    for name in ("param-count", "gradcheck"):  # they write no file
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([name, "--out", "x"])


@pytest.mark.parametrize("argv", [
    ["synth", "--classes", "9"], ["synth", "--classes", "1"], ["synth", "--size", "0"],
    ["synth", "--samples", "0"], ["synth", "--samples", "-1"],
    ["levels-sweep", "--levels", "2,x"], ["levels-sweep", "--seeds", "0"],
    ["gradcheck", "--coords-per-param", "0"], ["gradcheck", "--coords-per-param", "-1"],
    ["gradcheck", "--tolerance", "nan"], ["gradcheck", "--tolerance", "inf"],
    ["gradcheck", "--tolerance", "0"], ["synth", "--size", "100000"],
], ids=lambda argv: "{}{}={}".format(*argv))
def test_bad_argument_exits_2(tmp_path, capsys, argv):
    out = [] if argv[0] == "gradcheck" else ["--out", str(tmp_path / "out")]
    assert cli.main([*argv, *out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_ablate_cli(tmp_path, corpus, capsys):
    # the config's own model.ablated does not change which variant each row trains
    for ablated in ("false", "true"):
        cfg = write_cfg(tmp_path, corpus, **{"model.ablated": ablated})
        rc = cli.main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "abl")])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "variant\tparams\tbest_test_acc"
        variants = {l.split("\t")[0]: int(l.split("\t")[1]) for l in lines[1:]}
        assert variants["ablated"] < variants["full"]


@pytest.mark.parametrize("override", [
    "model.levels=7", "model.classes=5", "data.k=4", "train.lr=nan", "model.bn_epsilon=inf",
    "train.beta1=1.5", "train.beta2=1", "train.epsilon=0", "model.embedding_dim=-1", "seed=-1",
    "train.resize_to=5", "train.resize_to=-3", "model.input_size=0", "model.input_size=-16",
])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_rejected_run_leaves_no_out_dir(tmp_path, corpus, capsys, command, override):
    # a config check (a non-finite value, a value out of its range, a resize
    # target below the 16-px input), the manifest's class count and a split
    # option all fail before the run has anything to write
    cfg = write_cfg(tmp_path, corpus)
    out = tmp_path / "x"
    assert cli.main([command, "--config", str(cfg), "--set", override, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gradcheck", "param-count"])
def test_input_size_zero_exits_2(capsys, command):
    # 0 is a multiple of 2^2 too, but no image has that extent
    argv = [command, "--set", "model.input_size=0", "--set", "model.levels=2",
            "--set", "model.channels=2,2"]
    assert cli.main(argv) == 2
    assert "spatial extent 0x0 must be a positive multiple of 2^2=4" in capsys.readouterr().err


@pytest.mark.parametrize("policy, side", [("by-split-column", "training"),
                                          ("leave-one-group-in", "test")])
def test_split_without_training_or_test_images_leaves_no_out_dir(tmp_path, capsys, policy,
                                                                 side):
    # one sample per class puts every image in split 0 and group s0, so the one
    # split of each policy has an empty side
    corpus = tmp_path / "corpus"
    D.synth_textures(corpus, classes=3, samples_per_class=1, size=16, seed=0)
    cfg = write_cfg(tmp_path, corpus, **{"data.policy": policy})
    out = tmp_path / "x"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"split 0 under policy {policy!r} has no {side} images" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("levels, message", [("2,3,1", "levels must be in [2, 5], got 1"),
                                             ("2,6", "levels must be in [2, 5], got 6")])
def test_levels_sweep_checks_every_run_before_training(tmp_path, corpus, capsys, monkeypatch,
                                                       levels, message):
    def train(*_):
        raise AssertionError("a run trained before every run was checked")

    monkeypatch.setattr(TR, "train", train)
    cfg = write_cfg(tmp_path, corpus, **{"model.channels": "6,8,10,12,14"})
    rc = cli.main(["levels-sweep", "--config", str(cfg), "--levels", levels,
                   "--seeds", "2", "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_levels_sweep_rejected_train_config_leaves_no_out_dir(tmp_path, corpus, capsys,
                                                              monkeypatch):
    def train(*_):
        raise AssertionError("a run trained with a rejected train config")

    monkeypatch.setattr(TR, "train", train)
    cfg = write_cfg(tmp_path, corpus, **{"train.resize_to": 5})
    rc = cli.main(["levels-sweep", "--config", str(cfg), "--levels", "2",
                   "--seeds", "1", "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "resize_to must be 0 or in [16, 4096], got 5" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_train_checks_its_configs_before_loading_images(tmp_path, corpus, capsys, monkeypatch):
    loaded = []
    monkeypatch.setattr(D, "load_images", lambda *a: loaded.append(a) or [])
    for key, value in [("model.levels", 7), ("train.epochs", 0)]:
        cfg = write_cfg(tmp_path, corpus, **{key: value})
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert loaded == []


def test_levels_sweep_cli(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus, **{"model.channels": "6,8"})
    rc = cli.main(["levels-sweep", "--config", str(cfg), "--levels", "2",
                   "--seeds", "2", "--out", str(tmp_path / "sw")])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0] == "levels\t2"
    assert lines[1].startswith("accuracy\t")
    assert "±" in lines[1]


def test_cli_determinism_reports(tmp_path, corpus):
    cfg = write_cfg(tmp_path, corpus, **{"model.precision": "f64"})
    for name in ("r1", "r2"):
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "r1" / "best.wcnn").read_bytes()
    b = (tmp_path / "r2" / "best.wcnn").read_bytes()
    assert a == b
