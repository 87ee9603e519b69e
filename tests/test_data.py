import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcnn import data as D
from wcnn import wavelet as W
from wcnn.tensor import Tensor


# --- PNM ------------------------------------------------------------------------


def test_load_p5_basic(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
    img = D.load_pnm(path)
    assert img.shape == (1, 2, 2)
    assert img[0].tolist() == [[0.0, 1.0], [0.0, 1.0]]


def test_load_p6_red_pixel(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = D.load_pnm(path)
    assert img.shape == (3, 1, 1)
    assert img[:, 0, 0].tolist() == [1.0, 0.0, 0.0]


def test_pnm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([10, 20]))
    img = D.load_pnm(path)
    assert img.shape == (1, 1, 2)
    assert np.allclose(img[0, 0], [10 / 255, 20 / 255])


@pytest.mark.parametrize("channels,maxval", [(1, 255), (3, 255), (1, 65535), (3, 65535)])
def test_pnm_roundtrip(tmp_path, channels, maxval):
    rng = np.random.default_rng(0)
    # quantized starting values round-trip exactly
    raw = rng.integers(0, maxval + 1, size=(channels, 4, 5))
    pixels = raw.astype(np.float64) / maxval
    path = tmp_path / "rt.pnm"
    D.write_pnm(path, pixels, maxval=maxval)
    back = D.load_pnm(path)
    assert back.shape == pixels.shape
    assert np.array_equal(back, pixels)


def test_pnm_errors(tmp_path):
    bad_magic = tmp_path / "bad.pgm"
    bad_magic.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(D.PnmError):
        D.load_pnm(bad_magic)
    truncated = tmp_path / "short.pgm"
    truncated.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
    with pytest.raises(D.PnmError):
        D.load_pnm(truncated)
    above = tmp_path / "above.pgm"  # samples 255 and 50 against maxval 100
    above.write_bytes(b"P5 2 1 100\n" + bytes([255, 50]))
    with pytest.raises(D.PnmError, match="exceeds maxval 100"):
        D.load_pnm(above)
    above16 = tmp_path / "above16.pgm"
    above16.write_bytes(b"P5 1 1 1000\n" + (1001).to_bytes(2, "big"))
    with pytest.raises(D.PnmError, match="exceeds maxval 1000"):
        D.load_pnm(above16)
    big = tmp_path / "big.pgm"
    big.write_bytes(b"P5\n1 1\n70000\n\x00\x00")
    with pytest.raises(D.PnmError):
        D.load_pnm(big)


@pytest.mark.parametrize("header", [b"P5 x 2 255\n", b"P5 2 \xff 255\n", b"P6 2 2 25.5\n",
                                    b"P5 +2 2 255\n", b"P5 2 2 1e3\n"],
                         ids=["letter", "non-ascii", "fraction", "sign", "exponent"])
def test_pnm_malformed_header_fields(tmp_path, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(D.PnmError, match="is not a decimal integer"):
        D.load_pnm(path)


def test_write_pnm_failing_midway_keeps_the_old_image(tmp_path, disk_full_halfway):
    path = tmp_path / "t.pgm"
    D.write_pnm(path, np.zeros((1, 16, 16)))
    old = path.read_bytes()
    disk_full_halfway(100)  # the 256 pixel bytes, not the header
    with pytest.raises(OSError, match="No space"):
        D.write_pnm(path, np.ones((1, 16, 16)))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.pgm"]  # no temporary left


@pytest.fixture(scope="module")
def tiny_pgm(tmp_path_factory):
    path = tmp_path_factory.mktemp("pnm") / "t.pgm"
    D.write_pnm(path, np.random.default_rng(0).random((1, 3, 4)))
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pnm_corruption_loads_or_raises_pnm_error(tiny_pgm, data):
    """1-3 overwritten bytes, in the header (magic, width, height, maxval) or anywhere."""
    header = b"P5\n4 3\n255\n"
    raw = tiny_pgm.read_bytes()
    assert raw.startswith(header)
    buf = bytearray(raw)
    limit = len(header) if data.draw(st.booleans(), label="in header") else len(raw)
    for _ in range(data.draw(st.integers(1, 3), label="bytes")):
        buf[data.draw(st.integers(0, limit - 1))] = data.draw(st.integers(0, 255))
    corrupted = tiny_pgm.with_name("corrupted.pgm")
    corrupted.write_bytes(bytes(buf))
    try:
        pixels = D.load_pnm(corrupted)
    except D.PnmError:
        return
    assert pixels.min() >= 0.0 and pixels.max() <= 1.0


# --- manifests --------------------------------------------------------------------


def write_fixture_manifest(tmp_path, rows, header=True):
    lines = ["path\tlabels\tgroup\tsplit"] if header else []
    lines += rows
    path = tmp_path / "manifest.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def touch_images(tmp_path, names):
    for n in names:
        D.write_pnm(tmp_path / n, np.zeros((1, 2, 2)))


def test_load_manifest_fixture(tmp_path):
    touch_images(tmp_path, ["a.pgm", "b.pgm", "c.pgm"])
    path = write_fixture_manifest(tmp_path, [
        "a.pgm\tcat\tg0\t0",
        "b.pgm\tdog,cat\tg1\t1",
        "c.pgm\t\tg0\t0",
    ])
    m = D.load_manifest(path)
    assert len(m.records) == 3
    assert m.class_names == ("cat", "dog")
    assert m.label_indices(m.records[1]) == (1, 0)
    assert m.records[2].labels == ()  # negative-only record allowed at load


def test_manifest_errors(tmp_path):
    touch_images(tmp_path, ["a.pgm"])
    dup = write_fixture_manifest(tmp_path, ["a.pgm\tx\tg\t0", "a.pgm\tx\tg\t1"])
    with pytest.raises(D.ManifestError, match="line 2"):
        D.load_manifest(dup)

    missing = write_fixture_manifest(tmp_path, ["nope.pgm\tx\tg\t0"])
    with pytest.raises(D.ManifestError, match="missing file"):
        D.load_manifest(missing)


    headerless = write_fixture_manifest(tmp_path, ["a.pgm\tx\tg\t0"], header=False)
    with pytest.raises(D.ManifestError, match="first line"):
        D.load_manifest(headerless)


def make_group_manifest(tmp_path, groups=4, per_group=3):
    names = []
    rows = []
    for g in range(groups):
        for i in range(per_group):
            name = f"g{g}_{i}.pgm"
            names.append(name)
            rows.append(f"{name}\tc{i % 2}\tsample{g}\t{g}")
    touch_images(tmp_path, names)
    return D.load_manifest(write_fixture_manifest(tmp_path, rows))


def test_leave_one_group_in_rotation(tmp_path):
    m = make_group_manifest(tmp_path, groups=4, per_group=3)
    splits = D.make_splits(m, "leave-one-group-in")
    assert len(splits) == 4
    for train, test in splits:
        assert len(train) == 3  # one group in training: 1/4 of the data
        assert len(test) == 9
        assert not set(train) & set(test)
        assert set(train) | set(test) == set(range(12))
        groups = {m.records[i].group for i in train}
        assert len(groups) == 1
        assert groups.isdisjoint({m.records[i].group for i in test})


def test_by_split_column(tmp_path):
    names = [f"s{i}.pgm" for i in range(10)]
    touch_images(tmp_path, names)
    rows = [f"{n}\tc0\tg\t{i}" for i, n in enumerate(names)]
    m = D.load_manifest(write_fixture_manifest(tmp_path, rows))
    splits = D.make_splits(m, "by-split-column")
    assert len(splits) == 10
    for train, test in splits:
        assert len(test) == 1 and len(train) == 9
        assert not set(train) & set(test)


def test_kfold_leave_one_out(tmp_path):
    m = make_group_manifest(tmp_path, groups=2, per_group=3)
    n = len(m.records)
    splits = D.make_splits(m, "k-fold", k=n, seed=0)
    assert len(splits) == n
    tests = sorted(t[0] for _, t in splits)
    assert tests == list(range(n))
    with pytest.raises(D.ManifestError):
        D.make_splits(m, "k-fold", k=1)
    with pytest.raises(D.ManifestError, match="seed"):  # no folds from OS entropy
        D.make_splits(m, "k-fold", k=2)
    with pytest.raises(D.ManifestError):
        D.make_splits(m, "mystery-policy")


# --- synthetic corpus -----------------------------------------------------------


def test_synth_textures_deterministic(tmp_path):
    m1 = D.synth_textures(tmp_path / "a", classes=3, samples_per_class=4, size=16, seed=7)
    m2 = D.synth_textures(tmp_path / "b", classes=3, samples_per_class=4, size=16, seed=7)
    man1, man2 = D.load_manifest(m1), D.load_manifest(m2)
    assert [r.path for r in man1.records] == [r.path for r in man2.records]
    for r1, r2 in zip(man1.records, man2.records):
        assert man1.resolve(r1).read_bytes() == man2.resolve(r2).read_bytes()
    diff = D.synth_textures(tmp_path / "c", classes=3, samples_per_class=4, size=16, seed=8)
    man3 = D.load_manifest(diff)
    changed = any(
        man1.resolve(a).read_bytes() != man3.resolve(b).read_bytes()
        for a, b in zip(man1.records, man3.records)
    )
    assert changed


def test_synth_textures_rerun_rewrites_only_changed_images(tmp_path):
    def stamps():
        return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in sorted((tmp_path / "images").iterdir())}

    D.synth_textures(tmp_path, classes=3, samples_per_class=4, size=16, seed=7)
    first = stamps()
    D.synth_textures(tmp_path, classes=3, samples_per_class=4, size=16, seed=7)
    assert stamps() == first  # every image already held its bytes
    D.synth_textures(tmp_path, classes=3, samples_per_class=4, size=16, seed=8)
    other = stamps()
    assert other.keys() == first.keys()
    # each image was renamed over from a new file, so each has a new inode
    assert all(other[name][0] != first[name][0] for name in first)


def test_synth_textures_spec(tmp_path):
    manifest = D.load_manifest(D.synth_textures(tmp_path, classes=6, samples_per_class=5,
                                                size=32, seed=0))
    assert len(manifest.class_names) == 6
    assert len(manifest.records) == 30
    img = D.load_pnm(manifest.resolve(manifest.records[0]))
    assert img.shape == (1, 32, 32)
    assert img.min() >= 0.0 and img.max() <= 1.0


def level_energy_profile(pixels, levels=3):
    # profile contrast-normalized images, as the training pipeline does;
    # otherwise the DC offset swamps the low band for every class
    pixels = (pixels - pixels.mean()) / max(pixels.std(), 1e-8)
    pyr = W.decompose(Tensor(pixels[None]), levels)
    feats = []
    for lh, hl, hh in pyr.levels:
        feats += [float((b.data**2).sum()) for b in (lh, hl, hh)]
    feats.append(float((pyr.lowpass.data**2).sum()))
    v = np.array(feats)
    return v / max(v.sum(), 1e-12)


def test_grating_classes_separate_by_level(tmp_path):
    manifest = D.load_manifest(D.synth_textures(tmp_path, classes=2, samples_per_class=8,
                                                size=32, seed=3))
    by_class = {name: [] for name in manifest.class_names}
    for rec in manifest.records:
        by_class[rec.labels[0]].append(level_energy_profile(D.load_pnm(manifest.resolve(rec))))
    # sum detail energy per level (3 bands each); coarse and fine gratings
    # must concentrate detail energy at different levels
    def detail_level(profile):
        per_level = [profile[3 * t:3 * t + 3].sum() for t in range(3)]
        return int(np.argmax(per_level))

    coarse = detail_level(np.mean(by_class["grating_coarse"], axis=0))
    fine = detail_level(np.mean(by_class["grating_fine"], axis=0))
    assert coarse != fine


def test_synth_nearest_centroid_separability(tmp_path):
    manifest = D.load_manifest(D.synth_textures(tmp_path, classes=6, samples_per_class=20,
                                                size=32, seed=0))
    feats, labels = [], []
    for rec in manifest.records:
        feats.append(level_energy_profile(D.load_pnm(manifest.resolve(rec))))
        labels.append(manifest.label_indices(rec)[0])
    feats, labels = np.array(feats), np.array(labels)
    train = np.array([i for i, r in enumerate(manifest.records) if r.split != "0"])
    test = np.array([i for i, r in enumerate(manifest.records) if r.split == "0"])
    centroids = np.stack([feats[train][labels[train] == c].mean(axis=0) for c in range(6)])
    preds = np.argmin(((feats[test][:, None] - centroids[None]) ** 2).sum(axis=2), axis=1)
    acc = 100.0 * (preds == labels[test]).mean()
    assert acc > 80.0, f"nearest-centroid accuracy {acc:.1f}%"
