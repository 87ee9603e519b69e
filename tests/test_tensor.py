import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcnn import tensor as T
from wcnn.tensor import ShapeError, Tensor


@pytest.mark.parametrize("module", ["autodiff", "layers", "model", "train", "gradcheck"])
def test_tape_modules_do_not_reference_tensor(module):
    # the tape, the model and training compute on plain arrays
    path = Path(T.__file__).with_name(f"{module}.py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "Tensor" not in names


def test_constructor_contracts():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((1, 1, 1, 1, 1)))
    # integer input is promoted to f64
    t = Tensor([1, 2, 3])
    assert t.dtype == "f64"
    assert Tensor(np.zeros(3, dtype=np.float32)).dtype == "f32"


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_wtns_roundtrip(tmp_path, dtype):
    rng = np.random.default_rng(3)
    t = Tensor(rng.standard_normal((2, 3, 4, 5)), dtype=dtype)
    path = tmp_path / "t.wtns"
    T.save_wtns(path, t)
    loaded = T.load_wtns(path)
    assert loaded.dtype == dtype
    assert loaded.shape == t.shape
    assert np.array_equal(loaded.data, t.data)


def test_wtns_header_and_errors(tmp_path):
    t = Tensor([[1.0, 2.0], [3.0, 4.0]], dtype="f64")
    path = tmp_path / "t.wtns"
    T.save_wtns(path, t)
    raw = path.read_bytes()
    assert raw.startswith(b"WTNS1 f64 2 2 2\n")
    assert len(raw) == len(b"WTNS1 f64 2 2 2\n") + 4 * 8

    truncated = tmp_path / "bad.wtns"
    truncated.write_bytes(raw[:-3])
    with pytest.raises(ShapeError):
        T.load_wtns(truncated)

    not_wtns = tmp_path / "no.wtns"
    not_wtns.write_bytes(b"HELLO 1 2\n")
    with pytest.raises(ShapeError):
        T.load_wtns(not_wtns)


def test_wtns_scalar(tmp_path):
    t = Tensor(np.float64(2.5))
    path = tmp_path / "s.wtns"
    T.save_wtns(path, t)
    loaded = T.load_wtns(path)
    assert loaded.shape == ()
    assert loaded.data.item() == 2.5


def test_save_wtns_failing_midway_keeps_the_old_file(tmp_path, disk_full_halfway):
    path = tmp_path / "t.wtns"
    T.save_wtns(path, Tensor(np.zeros((2, 2))))
    old = path.read_bytes()
    disk_full_halfway(1000)  # the payload, not the header
    with pytest.raises(OSError, match="No space"):
        T.save_wtns(path, Tensor(np.ones((3, 16, 16))))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.wtns"]  # no temporary left


def test_wtns_malformed_header_fields(tmp_path):
    path = tmp_path / "bad.wtns"
    for header in (b"WTNS1 f64 x\n", b"WTNS1 f16 1 2\n", b"WTNS1 f64 2 3\n", b"WTNS1 f64 1 -2\n",
                   b"WTNS1 f64 5 1 1 1 1 1\n", b"WTNS1 f32 1 99999999999999999999\n"):
        path.write_bytes(header + bytes(8))
        with pytest.raises(ShapeError):
            T.load_wtns(path)


@pytest.fixture(scope="module")
def tiny_wtns(tmp_path_factory):
    path = tmp_path_factory.mktemp("wtns") / "t.wtns"
    T.save_wtns(path, Tensor(np.random.default_rng(0).standard_normal((2, 3, 4)), dtype="f32"))
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_wtns_corruption_loads_or_raises_shape_error(tiny_wtns, data):
    """1-3 overwritten bytes, in the header line or anywhere."""
    raw = tiny_wtns.read_bytes()
    buf = bytearray(raw)
    limit = raw.index(b"\n") + 1 if data.draw(st.booleans(), label="in header") else len(raw)
    for _ in range(data.draw(st.integers(1, 3), label="bytes")):
        buf[data.draw(st.integers(0, limit - 1))] = data.draw(st.integers(0, 255))
    corrupted = tiny_wtns.with_name("corrupted.wtns")
    corrupted.write_bytes(bytes(buf))
    try:
        T.load_wtns(corrupted)
    except ShapeError:
        pass
