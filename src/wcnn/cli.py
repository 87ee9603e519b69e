"""Command-line entry point.

Commands: decompose, synth, train, eval, param-count, gradcheck, ablate,
levels-sweep.  Exit codes are a stable contract: 0 success, 2 usage or
configuration error, 3 numerical failure.  Every run artifact embeds the
canonical configuration and its hash; all randomness flows from the single
`seed` key.  Only the commands that write files take `--out`.  `ablate` and
`levels-sweep` train each variant from the run configuration with keys
overridden (`model.ablated`; `seed`, `model.levels`, `model.channels`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as D
from . import gradcheck as G
from . import metrics as X
from . import model as M
from . import train as TR
from . import wavelet as W
from . import runconfig as RC
from .schema import get_value, to_items
from .tensor import DTYPES, ShapeError, Tensor, as_array, save_wtns, write_atomic

USAGE_ERRORS = (RC.ConfigError, ShapeError, D.ManifestError, D.PnmError, M.CheckpointError,
                FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)
NUMERIC_ERRORS = (TR.NonFiniteLossError, TR.NonFiniteGradientError, M.NonFiniteModelError)


def _merged_config(args) -> dict[str, str]:
    cfg = RC.load_config(args.config) if args.config else {}
    cfg = RC.apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    RC.check_known_keys(cfg)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_split(manifest_path, num_classes: int, policy: str | None, k: int | None,
                seed: int, index: int):
    """The manifest and the (train, test) indices of its split `index` under `policy`.

    The manifest must have the model's class count.  Without a policy every
    image is a test image.
    """
    if not manifest_path:
        raise RC.ConfigError("data.manifest is required")
    manifest = D.load_manifest(manifest_path)
    if len(manifest.class_names) != num_classes:
        raise RC.ConfigError(f"manifest has {len(manifest.class_names)} classes, "
                             f"the model has {num_classes}")
    if policy is None:
        if index or k is not None:
            raise RC.ConfigError("--split and --k select among the splits of a --policy; "
                                 "without one every image is a test image")
        return manifest, ([], range(len(manifest.records)))
    splits = D.make_splits(manifest, policy, k=k, seed=seed)
    if not 0 <= index < len(splits):
        raise RC.ConfigError(f"split {index} out of range; policy yields {len(splits)}")
    return manifest, splits[index]


def _embed_run_config(report: TR.TrainReport, cfg: dict[str, str]) -> None:
    report.header["config_hash"] = RC.config_hash(cfg)
    for key, value in cfg.items():
        report.header[f"cfg.{key}"] = value


# --- commands -------------------------------------------------------------------


def cmd_decompose(args) -> int:
    levels = args.levels
    if not 1 <= levels <= M.MAX_LEVELS:
        raise RC.ConfigError(f"levels must be in 1..{M.MAX_LEVELS}, got {levels}")
    pixels = D.load_pnm(args.image)
    image = as_array(pixels[None], args.precision)
    pyramid = W.decompose(image, levels)
    out = _out_dir(args)
    stem = Path(args.image).stem
    written = []
    for t, band, tensor in pyramid.bands():
        base = f"{stem}_L{t}_{band}"
        sub = Tensor(tensor.data[0])  # drop the batch axis: [channels, h, w]
        save_wtns(out / f"{base}.wtns", sub)
        written.append(f"{base}.wtns")
        if args.pgm:
            lo, hi = float(sub.data.min()), float(sub.data.max())
            scale = (sub.data - lo) / (hi - lo) if hi > lo else np.zeros_like(sub.data)
            D.write_pnm(out / f"{base}.pgm", scale)
            write_atomic(out / f"{base}.minmax.txt", f"min {lo!r}\nmax {hi!r}\n".encode())
    for name in written:
        print(name)
    if args.verify:
        back = W.reconstruct(pyramid)
        denom = max(float(np.abs(image).max()), 1e-30)
        err = float(np.abs(back.data - image).max()) / denom
        print(f"max_reconstruction_error\t{err:.3e}")
    return 0


def cmd_synth(args) -> int:
    manifest = D.synth_textures(args.out, classes=args.classes,
                                samples_per_class=args.samples, size=args.size, seed=args.seed)
    print(manifest)
    return 0


def _train_once(cfg: dict[str, str], checkpoint: Path | None):
    """Train the model `cfg` describes on its split; save the best to `checkpoint` if given."""
    model_cfg, train_cfg = RC.model_config_from(cfg), RC.train_config_from(cfg)
    model_cfg.validate()  # both configs fail before any image loads
    train_cfg.validate()
    train_cfg.resolved_resize(model_cfg.input_size)
    policy = get_value(cfg, "data.policy", "by-split-column")
    index = get_value(cfg, "data.split", 0)
    manifest, (train_idx, test_idx) = _load_split(
        get_value(cfg, "data.manifest", ""), model_cfg.num_classes, policy,
        get_value(cfg, "data.k", 0) or None, model_cfg.init_seed, index)
    for side, indices in (("training", train_idx), ("test", test_idx)):
        if not indices:
            raise RC.ConfigError(f"split {index} under policy {policy!r} has no {side} images")
    train_records = D.load_images(manifest, train_idx)
    test_records = D.load_images(manifest, test_idx)
    model = M.build(model_cfg)
    if checkpoint is not None:  # every check has passed, so the run may leave files
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        train_cfg.checkpoint_path = str(checkpoint)
    report = TR.train(model, train_records, test_records, train_cfg)
    _embed_run_config(report, cfg)
    return model, report


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    out = Path(args.out)
    checkpoint = out / "best.wcnn"
    _, report = _train_once(cfg, checkpoint)
    write_atomic(out / "report.tsv", report.to_text().encode())
    print(f"best_epoch\t{report.best_epoch}")
    print(f"best_test_acc\t{report.best_test_acc:.2f}")
    print(f"report\t{out / 'report.tsv'}")
    print(f"checkpoint\t{checkpoint}")
    return 0


def cmd_eval(args) -> int:
    model = M.load_model(args.checkpoint)
    # by default the run's own seed, so a k-fold split is the fold it held out
    seed = model.config.init_seed if args.seed is None else args.seed
    manifest, (_, test_idx) = _load_split(args.manifest, model.config.num_classes, args.policy,
                                          args.k, seed, args.split)
    result = TR.evaluate(model, D.load_images(manifest, test_idx))
    ckpt_hash = RC.config_hash(dict(to_items(model.config)))
    text = f"# checkpoint_config_hash = {ckpt_hash}\n"
    if model.config.head == "multilabel":
        text += X.bundle_to_tsv(result) + f"accuracy\t{result['accuracy']:.2f}\n"
    else:
        text += f"accuracy\t{result['accuracy']:.2f}\n"
    out = _out_dir(args)
    write_atomic(out / "metrics.tsv", text.encode())
    sys.stdout.write(text)
    return 0


def cmd_param_count(args) -> int:
    cfg = _merged_config(args)
    model = M.build(RC.model_config_from(cfg))
    total, breakdown = M.param_count(model)
    print("layer\tparams")
    for name, count in breakdown:
        print(f"{name}\t{count}")
    print(f"TOTAL\t{total}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.coords_per_param < 1:
        raise RC.ConfigError(f"--coords-per-param must be >= 1, got {args.coords_per_param}")
    if not 0 < args.tolerance < float("inf"):
        raise RC.ConfigError(f"--tolerance must be finite and positive, got {args.tolerance}")
    cfg = _merged_config(args)
    # the built-in check model unless the config describes one: a 224-px model takes hours
    describes_model = any(key.startswith("model.") for key in cfg)
    base = RC.model_config_from(cfg) if describes_model else G.default_check_config()
    model_cfg = replace(base, precision="f64", init_seed=get_value(cfg, "seed", base.init_seed))
    rows = G.layer_checks() + G.model_checks(model_cfg, input_stride=1 if args.full else 4,
                                             coords_per_param=args.coords_per_param)
    print("check\tmax_rel_error")
    worst = 0.0
    for name, err in rows:
        print(f"{name}\t{err:.3e}")
        worst = max(worst, err)
    print(f"WORST\t{worst:.3e}")
    if worst >= args.tolerance:
        print(f"FAIL: {worst:.3e} >= tolerance {args.tolerance:.1e}", file=sys.stderr)
        return 3
    return 0


def cmd_ablate(args) -> int:
    cfg = _merged_config(args)
    out = Path(args.out)
    rows = [f"# config_hash = {RC.config_hash(cfg)}", "variant\tparams\tbest_test_acc"]
    for variant, ablated in (("full", "false"), ("ablated", "true")):
        model, report = _train_once({**cfg, "model.ablated": ablated},
                                    out / f"best_{variant}.wcnn")
        total, _ = M.param_count(model)
        rows.append(f"{variant}\t{total}\t{report.best_test_acc:.2f}")
    text = "\n".join(rows) + "\n"
    write_atomic(out / "ablate.tsv", text.encode())
    sys.stdout.write(text)
    return 0


def cmd_levels_sweep(args) -> int:
    try:
        levels = [int(v) for v in args.levels.split(",") if v]
    except ValueError:
        levels = []
    if not levels:
        raise RC.ConfigError(f"--levels needs a comma-separated list of integers, "
                             f"e.g. 2,3,4; got {args.levels!r}")
    if args.seeds < 1:
        raise RC.ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    cfg = _merged_config(args)
    base_cfg = RC.model_config_from(cfg)
    base_seed = base_cfg.init_seed
    schedule = base_cfg.channels or M.DEFAULT_CHANNELS
    runs = [[{**cfg, "seed": str(base_seed + s), "model.levels": str(lv),
              "model.channels": ",".join(map(str, schedule[:lv]))}
             for s in range(args.seeds)]  # identical seed list for every level
            for lv in levels]
    for level_runs in runs:  # every run is checked before the first one trains
        for run_cfg in level_runs:
            RC.model_config_from(run_cfg).validate()
    detail = [f"# config_hash = {RC.config_hash(cfg)}"]
    cells = []
    for lv, level_runs in zip(levels, runs):
        accs = []
        for run_cfg in level_runs:
            _, report = _train_once(run_cfg, None)
            accs.append(report.best_test_acc)
            detail.append(f"# level {lv} seed {run_cfg['seed']}: {report.best_test_acc:.2f}")
        mean, sd = X.split_aggregate(accs)
        cells.append(X.format_mean_sd(mean, sd))
    lines = detail + [
        "levels\t" + "\t".join(str(lv) for lv in levels),
        "accuracy\t" + "\t".join(cells),
    ]
    text = "\n".join(lines) + "\n"
    write_atomic(_out_dir(args) / "levels_sweep.tsv", text.encode())
    sys.stdout.write(text)
    return 0


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wcnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # option groups shared by several commands; `--out` only where a command writes files
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="flat key = value configuration file")
    config.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key (repeatable)")
    config.add_argument("--seed", type=int, help="override the seed key")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("decompose", parents=[out], help="write the subband pyramid of an image")
    p.add_argument("image", help="binary PGM/PPM input")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--pgm", action="store_true", help="also write rescaled PGM previews")
    p.add_argument("--verify", action="store_true", help="report the reconstruction error")
    p.add_argument("--precision", choices=tuple(DTYPES), default="f32")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("synth", help="generate the synthetic texture corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", parents=[config, out], help="train on a manifest dataset")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[out], help="evaluate a checkpoint on a manifest")
    p.add_argument("checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--policy", choices=D.SPLIT_POLICIES)
    p.add_argument("--split", type=int, default=0)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("param-count", parents=[config], help="per-layer parameter table")
    p.set_defaults(fn=cmd_param_count)

    p = sub.add_parser("gradcheck", parents=[config], help="finite-difference verification suite")
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--full", action="store_true", help="sweep every input coordinate")
    p.add_argument("--coords-per-param", type=int, default=6)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", parents=[config, out],
                       help="train the full and detail-free variants side by side")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("levels-sweep", parents=[config, out],
                       help="accuracy table over decomposition depths")
    p.add_argument("--levels", default="2,3,4")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(fn=cmd_levels_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
