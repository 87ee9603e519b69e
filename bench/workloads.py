"""The three benchmark workloads.

Each workload builds its inputs from the run seed in `setup()` and exposes two
timed phases.  A phase is one kind of operation, repeated: `op(i)` runs the
i-th operation and returns what `check(i, out)` verifies outside the timed
region.  `check` raises `CheckFailed` on a wrong output.

All library calls go through module attributes (`TR.train`, `W.decompose`,
...) so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from wcnn import data as D
from wcnn import model as M
from wcnn import train as TR
from wcnn import wavelet as W
from wcnn.tensor import Tensor


class CheckFailed(RuntimeError):
    """An operation returned, but its output is wrong."""


@dataclass
class Phase:
    name: str
    metric: str  # the end-to-end metric this phase's images/s is reported as
    share: float  # fraction of the run's measuring seconds
    images: int  # images one operation processes
    op: Callable[[int], Any]
    check: Callable[[int, Any], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- desk-train ----------------------------------------------------------------

# the README / acceptance desk configuration
DESK_MODEL = M.WaveletCnnConfig(levels=3, input_size=32, input_channels=1,
                                channels=(12, 24, 32), num_classes=6, precision="f32")
DESK_EPOCHS = 10
DESK_MIN_ACCURACY = 90.0


class DeskTrain:
    """Synthetic 6-class 32 px corpus, split 0 of by-split-column, 10 epochs."""

    name = "desk-train"
    precision = DESK_MODEL.precision
    reference_mix = "training"
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.checkpoint = workdir / "best.wcnn"
        self.report = None

    def setup(self) -> None:
        # a repeated set-up rewrites the same corpus files in place
        manifest_path = D.synth_textures(self.workdir / "corpus", classes=6, samples_per_class=40,
                                         size=32, seed=self.seed)
        manifest = D.load_manifest(manifest_path)
        train_idx, test_idx = D.make_splits(manifest, "by-split-column")[0]
        self.train_records = D.load_images(manifest, train_idx)
        self.test_records = D.load_images(manifest, test_idx)
        warm = M.build(DESK_MODEL)
        TR.evaluate(warm, self.test_records)

    def train_op(self, i: int):
        # every operation trains a fresh model, so all of them do the same work
        net = M.build(DESK_MODEL)
        cfg = TR.TrainConfig(epochs=DESK_EPOCHS, batch_size=16, lr=1e-3, seed=0,
                             augment=True, eval_every=1,
                             checkpoint_path=str(self.checkpoint))
        return TR.train(net, self.train_records, self.test_records, cfg)

    def train_check(self, i: int, report) -> None:
        losses = [loss for _, split, loss, _ in report.rows if split == "train"]
        _require(all(math.isfinite(x) for x in losses), f"non-finite epoch loss in {losses}")
        _require(report.best_test_acc >= DESK_MIN_ACCURACY,
                 f"best test accuracy {report.best_test_acc:.2f} < {DESK_MIN_ACCURACY}")
        self.report = report

    def eval_op(self, i: int):
        # what `wcnn eval` does: load the best checkpoint, evaluate the test split
        net = M.load_model(self.checkpoint)
        return TR.evaluate(net, self.test_records)

    def eval_check(self, i: int, result) -> None:
        # evaluate batches differently from the training loop, which may move
        # a borderline image; more than one image of difference is a fault
        acc, best = result["accuracy"], self.report.best_test_acc
        one_image = 100.0 / len(self.test_records)
        _require(acc >= DESK_MIN_ACCURACY, f"checkpoint accuracy {acc:.2f} < {DESK_MIN_ACCURACY}")
        _require(abs(acc - best) <= one_image + 1e-9,
                 f"checkpoint accuracy {acc:.2f} != best epoch {best:.2f}")

    def phases(self) -> list[Phase]:
        n_train = len(self.train_records) * DESK_EPOCHS
        return [
            # training operations are long, so they get more of the time
            Phase("train", "primary_img_per_s", 0.7, n_train, self.train_op, self.train_check),
            Phase("eval", "secondary_img_per_s", 0.3, len(self.test_records),
                  self.eval_op, self.eval_check),
        ]


# --- paper-train ---------------------------------------------------------------

PAPER_MODEL = M.WaveletCnnConfig()  # 224 px, 5 levels, 1000 classes, f32
PAPER_BATCH = 4
PAPER_POOL = 16  # seeded images cycled through by the operations
FIRST_LOSS_TOLERANCE = 0.1


class PaperTrain:
    """The default 16.8M-parameter network on seeded 224 px images, batch 4."""

    name = "paper-train"
    precision = PAPER_MODEL.precision
    reference_mix = "training"
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        size, classes = PAPER_MODEL.input_size, PAPER_MODEL.num_classes
        self.pool = [
            D.ImageRecord(rng.random((3, size, size)), (int(rng.integers(classes)),),
                          f"seed{self.seed}/{i}")
            for i in range(PAPER_POOL)
        ]
        self.net = M.build(PAPER_MODEL)
        TR.evaluate(self.net, self.pool[:1], batch_size=1)

    def _records(self, i: int):
        at = (i * PAPER_BATCH) % PAPER_POOL
        return self.pool[at:at + PAPER_BATCH]

    def train_op(self, i: int):
        # one epoch of one batch; the model keeps training across operations
        cfg = TR.TrainConfig(epochs=1, batch_size=PAPER_BATCH, lr=1e-3, seed=0, augment=True)
        return TR.train(self.net, self._records(i), [], cfg)

    def train_check(self, i: int, report) -> None:
        loss = report.final_train_loss
        _require(math.isfinite(loss), f"non-finite loss {loss}")
        if i == 0:  # the damped classifier init starts at the uniform prediction
            expected = math.log(PAPER_MODEL.num_classes)
            _require(abs(loss - expected) <= FIRST_LOSS_TOLERANCE,
                     f"first-step loss {loss:.4f} not within {FIRST_LOSS_TOLERANCE} "
                     f"of ln({PAPER_MODEL.num_classes}) = {expected:.4f}")

    def eval_op(self, i: int):
        return TR.evaluate(self.net, self._records(i), batch_size=PAPER_BATCH)

    def eval_check(self, i: int, result) -> None:
        acc = result["accuracy"]
        _require(0.0 <= acc <= 100.0, f"accuracy {acc} outside [0, 100]")

    def phases(self) -> list[Phase]:
        return [
            Phase("train", "primary_img_per_s", 0.6, PAPER_BATCH, self.train_op, self.train_check),
            Phase("eval", "secondary_img_per_s", 0.4, PAPER_BATCH, self.eval_op, self.eval_check),
        ]


# --- decompose -----------------------------------------------------------------

DECOMPOSE_LEVELS = 5
DECOMPOSE_BATCH = 8  # images of 3 x 224 x 224 f64, 1.2 MB each
DECOMPOSE_POOL = 4  # seeded batches cycled through by the operations
ORACLE_TOLERANCE = 1e-10


class Decompose:
    """Seeded f64 batches through `wavelet.decompose` and `wavelet.reconstruct`."""

    name = "decompose"
    precision = "f64"
    reference_mix = "transform"
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        shape = (DECOMPOSE_BATCH, 3, 224, 224)
        self.batches = [Tensor(rng.standard_normal(shape)) for _ in range(DECOMPOSE_POOL)]
        self.energy = [float((b.data ** 2).sum()) for b in self.batches]
        # reconstruct operations invert these; making them warms the transform up
        self.pyramids = [W.decompose(b, DECOMPOSE_LEVELS) for b in self.batches]
        W.reconstruct(self.pyramids[0])

    def decompose_op(self, i: int):
        return W.decompose(self.batches[i % DECOMPOSE_POOL], DECOMPOSE_LEVELS)

    def decompose_check(self, i: int, pyramid) -> None:
        energy = self.energy[i % DECOMPOSE_POOL]
        drift = abs(pyramid.energy() - energy) / energy
        _require(drift <= ORACLE_TOLERANCE, f"energy drift {drift:.3e} > {ORACLE_TOLERANCE}")

    def reconstruct_op(self, i: int):
        return W.reconstruct(self.pyramids[i % DECOMPOSE_POOL])

    def reconstruct_check(self, i: int, image: Tensor) -> None:
        source = self.batches[i % DECOMPOSE_POOL].data
        err = float(np.abs(image.data - source).max() / np.abs(source).max())
        _require(err <= ORACLE_TOLERANCE, f"reconstruction error {err:.3e} > {ORACLE_TOLERANCE}")

    def phases(self) -> list[Phase]:
        return [
            Phase("decompose", "primary_img_per_s", 0.5, DECOMPOSE_BATCH,
                  self.decompose_op, self.decompose_check),
            Phase("reconstruct", "secondary_img_per_s", 0.5, DECOMPOSE_BATCH,
                  self.reconstruct_op, self.reconstruct_check),
        ]


WORKLOADS = {w.name: w for w in (DeskTrain, PaperTrain, Decompose)}
