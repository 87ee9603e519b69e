"""Dataset ingestion: PNM images, manifest files, split policies, synthetic textures.

Only the binary PNM formats (P5 grayscale, P6 color) are parsed natively —
bit-exact ingestion with zero dependencies; convert other formats externally.
Pixels load as [channel, height, width] floats in [0, 1].

A manifest is a TSV with header `path<TAB>labels<TAB>group<TAB>split`; labels
are comma-separated class names (empty allowed for negative-only multi-label
records), paths are relative to the manifest's directory.  Class indices are
assigned by sorted name so they are stable across runs.

The synthetic texture corpus generates classes that differ in spectral
content (oriented gratings, checkerboards at two scales, band-passed noise)
with per-sample random phase and jitter, deterministically per seed.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import SYNTH, stream_rng
from .tensor import ShapeError, read_text, write_atomic


class PnmError(ValueError):
    pass


class ManifestError(ValueError):
    pass


# --- PNM reader/writer --------------------------------------------------------


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(buf):
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < len(buf) and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PnmError("unexpected end of header")
    return buf[start:pos], pos


def load_pnm(path) -> np.ndarray:
    """Read a binary PGM/PPM into a [channels, h, w] float64 array in [0, 1]."""
    buf = Path(path).read_bytes()
    try:
        magic, pos = _next_token(buf, 0)
        if magic not in (b"P5", b"P6"):
            raise PnmError(f"unsupported magic {magic!r}; only binary P5/P6")
        channels = 1 if magic == b"P5" else 3
        fields = []
        for name in ("width", "height", "maxval"):
            tok, pos = _next_token(buf, pos)
            if not tok.isdigit():  # ASCII decimal digits only, no sign
                raise PnmError(f"{name} {tok[:20]!r} is not a decimal integer")
            fields.append(int(tok))  # ValueError past Python's digit limit
        width, height, maxval = fields
    except ValueError as e:  # PnmError included
        raise PnmError(f"{path}: {e}") from None
    if width <= 0 or height <= 0:
        raise PnmError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise PnmError(f"{path}: maxval {maxval} outside (0, 65535]")
    pos += 1  # the single whitespace byte after maxval
    two_byte = maxval > 255
    count = width * height * channels
    expected = count * (2 if two_byte else 1)
    payload = buf[pos:pos + expected]
    if len(payload) != expected:
        raise PnmError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    samples = np.frombuffer(payload, ">u2" if two_byte else np.uint8)  # 2-byte is big-endian
    if samples.max() > maxval:
        raise PnmError(f"{path}: sample {samples.max()} exceeds maxval {maxval}")
    arr = (samples.astype(np.float64) / maxval).reshape(height, width, channels)
    return np.ascontiguousarray(arr.transpose(2, 0, 1))


def write_pnm(path, pixels: np.ndarray, maxval: int = 255) -> None:
    """Write a [channels, h, w] array of [0, 1] floats as binary PGM/PPM; a file that
    already holds exactly these bytes is left as it is, so a corpus rerun replaces none."""
    pixels = np.asarray(pixels)
    if pixels.ndim == 2:
        pixels = pixels[None]
    if pixels.ndim != 3 or pixels.shape[0] not in (1, 3):
        raise PnmError(f"expected [1|3, h, w] pixels, got shape {pixels.shape}")
    if not 0 < maxval <= 65535:
        raise PnmError(f"maxval {maxval} outside (0, 65535]")
    channels, height, width = pixels.shape
    magic = b"P5" if channels == 1 else b"P6"
    quant = np.clip(np.round(pixels * maxval), 0, maxval)
    dtype = ">u2" if maxval > 255 else np.uint8
    data = (magic + b"\n" + f"{width} {height}\n{maxval}\n".encode("ascii")
            + quant.transpose(1, 2, 0).astype(dtype).tobytes())
    with contextlib.suppress(OSError):  # no readable file there: write one
        if os.path.getsize(path) == len(data) and Path(path).read_bytes() == data:
            return
    write_atomic(path, data)


# --- manifests ------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    labels: tuple[str, ...]
    group: str
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    root: Path
    records: tuple[ManifestRecord, ...]
    class_names: tuple[str, ...]

    def label_indices(self, record: ManifestRecord) -> tuple[int, ...]:
        return tuple(self.class_names.index(name) for name in record.labels)

    def resolve(self, record: ManifestRecord) -> Path:
        return self.root / record.path


@dataclass(frozen=True)
class ImageRecord:
    pixels: np.ndarray  # [channels, h, w] in [0, 1]
    labels: tuple[int, ...]
    path: str


HEADER = ("path", "labels", "group", "split")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    lines = read_text(path, ManifestError).splitlines()
    if not lines or tuple(lines[0].split("\t")) != HEADER:
        raise ManifestError(f"{path}: first line must be {chr(9).join(HEADER)!r}")
    records: list[ManifestRecord] = []
    seen: dict[str, int] = {}
    names: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ManifestError(f"{path}:{lineno}: expected 4 tab-separated fields")
        rel, labels_field, group, split = parts
        if rel in seen:
            raise ManifestError(
                f"{path}:{lineno}: duplicate path {rel!r} (first at line {seen[rel]})"
            )
        seen[rel] = lineno
        labels = tuple(l for l in labels_field.split(",") if l)
        if not (path.parent / rel).is_file():
            raise ManifestError(f"{path}:{lineno}: missing file {rel!r}")
        names.update(labels)
        records.append(ManifestRecord(rel, labels, group, split))
    return DatasetManifest(path.parent, tuple(records), tuple(sorted(names)))


SPLIT_POLICIES = ("by-split-column", "leave-one-group-in", "k-fold")


def make_splits(manifest: DatasetManifest, policy: str,
                k: int | None = None, seed: int | None = None) -> list[tuple[list[int], list[int]]]:
    """Produce (train_indices, test_indices) pairs under one of three policies.

    by-split-column: each distinct split id in turn is the test fold.
    leave-one-group-in: each group in turn is the (small) training set, the
    rest is for testing.
    k-fold: seeded shuffle into k folds, each the test set once; only this
    policy takes `k`, and it needs the `seed`.
    """
    if k is not None and policy != "k-fold":
        raise ManifestError(f"k applies to the k-fold policy only, not to {policy!r}")
    n = len(manifest.records)
    idx = list(range(n))
    if policy == "by-split-column":
        values = sorted({r.split for r in manifest.records})
        if values == [""]:
            raise ManifestError("by-split-column policy needs a populated split field")
        return [
            ([i for i in idx if manifest.records[i].split != v],
             [i for i in idx if manifest.records[i].split == v])
            for v in values
        ]
    if policy == "leave-one-group-in":
        groups = sorted({r.group for r in manifest.records})
        if groups == [""]:
            raise ManifestError("leave-one-group-in policy needs a populated group field")
        return [
            ([i for i in idx if manifest.records[i].group == g],
             [i for i in idx if manifest.records[i].group != g])
            for g in groups
        ]
    if policy == "k-fold":
        if not k or k < 2 or k > n:
            raise ManifestError(f"k-fold policy needs 2 <= k <= {n}, got {k}")
        if seed is None:
            raise ManifestError("k-fold policy needs a seed to draw its folds")
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        folds = [sorted(order[f::k].tolist()) for f in range(k)]
        return [
            (sorted(set(idx) - set(fold)), fold)
            for fold in folds
        ]
    raise ManifestError(f"unknown split policy {policy!r}; "
                        f"expected one of {', '.join(SPLIT_POLICIES)}")


def load_images(manifest: DatasetManifest, indices) -> list[ImageRecord]:
    out = []
    for i in indices:
        rec = manifest.records[i]
        out.append(ImageRecord(load_pnm(manifest.resolve(rec)),
                               manifest.label_indices(rec), rec.path))
    return out


# --- synthetic texture corpus ------------------------------------------------


def _grating(size, rng, freq, theta):
    theta = theta + rng.uniform(-0.1, 0.1)
    phase = rng.uniform(0, 2 * np.pi)
    amp = rng.uniform(0.32, 0.45)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    wave = np.sin(2 * np.pi * freq * (np.cos(theta) * jj + np.sin(theta) * ii) / size + phase)
    return 0.5 + amp * wave + rng.normal(0, 0.015, (size, size))


def _checker(size, rng, cell):
    # even offsets keep cell edges aligned with dyadic sample pairs, so the
    # subband energy profile of the class stays unimodal under jitter
    ox, oy = 2 * rng.integers(0, max(cell // 2, 1), size=2)
    amp = rng.uniform(0.32, 0.45)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    board = (((ii + oy) // cell + (jj + ox) // cell) % 2) * 2.0 - 1.0
    return 0.5 + amp * board + rng.normal(0, 0.015, (size, size))


def _band_noise(size, rng, lo_frac, hi_frac):
    white = rng.standard_normal((size, size))
    spectrum = np.fft.fft2(white)
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    radius = np.sqrt(fx**2 + fy**2)
    mask = (radius >= lo_frac) & (radius <= hi_frac)
    band = np.real(np.fft.ifft2(spectrum * mask))
    band = (band - band.mean()) / max(band.std(), 1e-8)
    return 0.5 + 0.14 * band


CLASS_SPECS = (
    ("grating_coarse", lambda s, r: _grating(s, r, freq=2, theta=0.0)),
    ("grating_fine", lambda s, r: _grating(s, r, freq=10, theta=np.pi / 2)),
    ("grating_diag", lambda s, r: _grating(s, r, freq=5, theta=np.pi / 4)),
    # the fine cell stays above the sampling limit so that resize-based
    # augmentation does not alias the class away
    ("checker_coarse", lambda s, r: _checker(s, r, cell=8)),
    ("checker_fine", lambda s, r: _checker(s, r, cell=3)),
    ("band_noise", lambda s, r: _band_noise(s, r, 0.15, 0.30)),
)

# the largest image side: one f64 plane of 4096 px is 134 MB and a generator
# holds a few, while 100,000 px would ask for 80 GB before writing anything
MAX_SYNTH_SIZE = 4096


def synth_textures(out_dir, classes: int, samples_per_class: int, size: int,
                   seed: int) -> Path:
    """Write a deterministic on-disk texture corpus; returns the manifest path.

    Samples are assigned round-robin to four split ids and groups, so both
    by-split-column and leave-one-group-in policies apply directly.
    """
    if not 2 <= classes <= len(CLASS_SPECS):
        raise ShapeError(f"classes must be in [2, {len(CLASS_SPECS)}], got {classes}")
    if samples_per_class < 1 or not 1 <= size <= MAX_SYNTH_SIZE:
        raise ShapeError(f"samples per class must be >= 1 and size in [1, {MAX_SYNTH_SIZE}], "
                         f"got {samples_per_class} and {size}")
    out_dir = Path(out_dir)
    img_dir = out_dir / "images"
    os.makedirs(img_dir, exist_ok=True)
    lines = ["\t".join(HEADER)]
    for ci in range(classes):
        name, gen = CLASS_SPECS[ci]
        for si in range(samples_per_class):
            rng = stream_rng(seed, SYNTH, ci, si)
            img = np.clip(gen(size, rng), 0.0, 1.0)
            rel = f"images/{name}_{si:03d}.pgm"
            write_pnm(out_dir / rel, img[None])
            fold = si % 4
            lines.append(f"{rel}\t{name}\ts{fold}\t{fold}")
    manifest_path = out_dir / "manifest.tsv"
    write_atomic(manifest_path, ("\n".join(lines) + "\n").encode("utf-8"))
    return manifest_path
