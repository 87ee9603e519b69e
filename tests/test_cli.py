import numpy as np
import pytest

from wcnn import cli
from wcnn import data as D
from wcnn import model as M
from wcnn import runconfig as RC
from wcnn.tensor import load_wtns


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


def test_eval_class_mismatch_exits_2(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    other = tmp_path / "other"
    D.synth_textures(other, classes=2, samples_per_class=3, size=16, seed=1)
    rc = cli.main(["eval", str(out / "best.wcnn"), "--manifest", str(other / "manifest.tsv")])
    assert rc == 2


def test_gradcheck_cli(tmp_path, capsys):
    rc = cli.main(["gradcheck", "--tolerance", "1e-5", "--coords-per-param", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("check\tmax_rel_error")
    assert "WORST\t" in out


def test_ablate_cli(tmp_path, corpus, capsys):
    cfg = write_cfg(tmp_path, corpus)
    rc = cli.main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "abl")])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "variant\tparams\tbest_test_acc"
    variants = {l.split("\t")[0]: int(l.split("\t")[1]) for l in lines[1:]}
    assert variants["ablated"] < variants["full"]


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