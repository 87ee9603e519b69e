"""The value contract, the transform's `Tensor` type and the raw tensor codec.

A value is a dense numpy array of rank at most 4 holding float32 or float64
scalars, tagged "f32"/"f64" in text (`tag`); images are NCHW [batch,
channel, height, width].  `as_array` checks that contract in one place: for
the tape's values, the model's parameters and batches, and `Tensor`, which
wraps one array as the value type of the transform and WTNS1 API.  There is
no arithmetic here: the network computes on the tape (`autodiff`, `layers`).
Values are not written in place, except by the optimizer's parameter update,
which owns its arrays.

One little-endian codec (`shape_fields`/`parse_shape_fields`,
`encode`/`decode`) is the payload encoding of both WTNS1 tensor files and
WCNN1 checkpoints; malformed fields or short payloads raise `ShapeError`.
Every file the library writes goes through `write_atomic`; its text files
are read through `read_text`.
"""

from __future__ import annotations

import contextlib
import math
import os
import uuid
from pathlib import Path

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}
_TAG_OF = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

MAX_NDIM = 4


class ShapeError(ValueError):
    """Raised on shape, dtype, or index contract violations."""


def as_array(data, dtype: str | None = None) -> np.ndarray:
    """`data` (array-like or `Tensor`) as an f32/f64 array of rank at most 4.

    With a `dtype` tag the array is cast to it; without one an f32/f64 array
    passes as is and anything else becomes f64.
    """
    if isinstance(data, Tensor):
        data = data.data
    if dtype is not None:
        if dtype not in DTYPES:
            raise ShapeError(f"unknown dtype tag {dtype!r}; expected one of {sorted(DTYPES)}")
        arr = np.asarray(data, dtype=DTYPES[dtype])
    else:
        arr = np.asarray(data)
        if arr.dtype not in _TAG_OF:
            arr = arr.astype(np.float64)
    if arr.ndim > MAX_NDIM:
        raise ShapeError(f"tensor rank {arr.ndim} exceeds maximum {MAX_NDIM}")
    return arr


def tag(arr: np.ndarray) -> str:
    """The "f32"/"f64" tag of an f32/f64 array."""
    return _TAG_OF[arr.dtype]


class Tensor:
    __slots__ = ("data",)

    def __init__(self, data, dtype: str | None = None):
        self.data = as_array(data, dtype)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return tag(self.data)

    def __repr__(self) -> str:
        dims = ",".join(str(d) for d in self.shape)
        return f"Tensor({self.dtype}[{dims}])"


# --- little-endian tensor codec, shared by WTNS1 files and WCNN1 checkpoints --
#
# A tensor is described by the ASCII fields `<dtype> <ndim> <d0> <d1> ...` and
# stored as its scalars in little-endian byte order, row-major.

_LE = {"f32": "<f4", "f64": "<f8"}


def shape_fields(arr: np.ndarray) -> str:
    """The `<dtype> <ndim> <d0> <d1> ...` fields describing `arr`."""
    return " ".join([tag(arr), str(arr.ndim), *map(str, arr.shape)])


def parse_shape_fields(fields: list[str]) -> tuple[str, tuple[int, ...]]:
    """(dtype, shape) from the fields `shape_fields` writes; ShapeError if malformed."""
    text = " ".join(fields)
    if len(fields) < 2 or fields[0] not in _LE:
        raise ShapeError(f"expected '<{'|'.join(_LE)}> <ndim> <extents>', got {text!r}")
    if not all(f.isdecimal() for f in fields[1:]):
        raise ShapeError(f"rank and extents must be non-negative integers, got {text!r}")
    if len(fields) != 2 + int(fields[1]):
        raise ShapeError(f"{len(fields) - 2} extents listed for rank {fields[1]}")
    if len(fields) - 2 > MAX_NDIM:
        raise ShapeError(f"tensor rank {len(fields) - 2} exceeds maximum {MAX_NDIM}")
    return fields[0], tuple(int(d) for d in fields[2:])


def encode(arr: np.ndarray) -> bytes:
    return arr.astype(_LE[tag(arr)]).tobytes()


def decode(buf: bytes, dtype: str, shape: tuple[int, ...], offset: int) -> np.ndarray:
    """The `shape` tensor encoded at byte `offset` of `buf`, as a native-order array."""
    le = np.dtype(_LE[dtype])
    size = math.prod(shape) * le.itemsize
    if offset + size > len(buf):
        raise ShapeError(f"{size} payload bytes needed at offset {offset}, {len(buf)} present")
    return np.frombuffer(buf, le, size // le.itemsize, offset).reshape(shape).astype(DTYPES[dtype])


def write_atomic(path, *chunks: bytes) -> None:
    """Write `chunks` to `path` atomically: to a temporary file beside it, then
    renamed over it, so a write that fails midway leaves any earlier file
    whole and no temporary behind.  There is no fsync: this guards against a
    failed write, not against a power loss."""
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"  # same directory: os.replace is a rename
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of `path`; `error` naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (byte {e.start})") from None


# --- WTNS1 raw tensor file format ------------------------------------------
#
# ASCII header line `WTNS1 <dtype> <ndim> <d0> <d1> ...` terminated by a
# newline, followed by the encoded scalars.

_WTNS_MAGIC = "WTNS1"


def save_wtns(path, t: Tensor) -> None:
    write_atomic(path, f"{_WTNS_MAGIC} {shape_fields(t.data)}\n".encode("ascii"), encode(t.data))


def load_wtns(path) -> Tensor:
    with open(path, "rb") as fh:
        header, payload = fh.readline(), fh.read()
    fields = header.decode("ascii", errors="replace").split()
    try:
        if len(fields) < 3 or fields[0] != _WTNS_MAGIC:
            raise ShapeError(f"not a {_WTNS_MAGIC} file (header {header[:60]!r})")
        dtype, shape = parse_shape_fields(fields[1:])
        arr = decode(payload, dtype, shape, 0)
        if arr.nbytes != len(payload):
            raise ShapeError(f"payload is {len(payload)} bytes, expected {arr.nbytes}")
    except ShapeError as e:
        raise ShapeError(f"{path}: {e}") from None
    return Tensor(arr)
